// Package fixture is the root package of a module that exercises the
// exported-names guard: it re-exports kit.Thing and calls kit.Used.
package fixture

import (
	"fixture/internal/kit"
	"fixture/internal/other"
)

// Thing makes kit.Thing's methods public API.
type Thing = kit.Thing

// Run is the module's one production caller of kit.
func Run() int { return other.Twice(kit.Used(kit.Low)) + len(kit.Box{}.Name) }
