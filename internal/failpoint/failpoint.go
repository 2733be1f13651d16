// Package failpoint is a tiny, build-tag-free fault-injection registry for
// testing failure paths that are otherwise unreachable without real broken
// hardware: fsync errors, slow disks, panics in the middle of an I/O
// sequence (DESIGN.md §12).
//
// Production code marks a site by calling Inject (or InjectCtx) at the
// exact point where an I/O operation could fail:
//
//	if err := failpoint.Inject("wal.append.sync"); err != nil {
//	    return err
//	}
//	err := f.Sync()
//
// Tests activate an injection for a named site and get deterministic
// failures — an error, a delay, or a panic, optionally only after the
// first SkipFirst hits and for at most Times hits:
//
//	failpoint.Enable("wal.append.sync", failpoint.Injection{
//	    Err: errDiskGone, SkipFirst: 2,
//	})
//	defer failpoint.Disable("wal.append.sync")
//
// When no failpoint is enabled anywhere — the only state production code
// ever runs in — Inject is one atomic load and an immediate return. There
// is no build tag: the sites are always compiled in, so the binary that is
// tested is the binary that ships, and a fault-injection suite can drive a
// real server end to end.
//
// The registry is process-global because the sites it names are spread
// across packages that must not depend on test wiring. Tests that enable
// failpoints must not run in parallel with tests that hit the same sites;
// the suites under internal/wal and internal/ttserve serialise themselves.
package failpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Injection describes what happens when an enabled site is hit. The zero
// value injects nothing but still counts hits (useful to assert a site is
// reached).
type Injection struct {
	// Err is returned from Inject after Delay elapses.
	Err error
	// Delay blocks the caller before anything else happens (slow-disk
	// simulation; composes with Err and Panic).
	Delay time.Duration
	// Panic, when non-empty, makes Inject panic with this message after
	// Delay — the crash-mid-sequence simulation.
	Panic string
	// SkipFirst lets the first SkipFirst hits pass through untouched, so a
	// test can fail exactly the Nth operation.
	SkipFirst int
	// Times bounds how many hits trigger the injection once SkipFirst is
	// exhausted (0 = every later hit). After the budget is spent the site
	// behaves as if disabled (but keeps counting hits).
	Times int
}

// Well-known sites of the sharded scatter-gather layer (DESIGN.md §14).
// The dispatcher hits both the bare site and a per-shard variant
// (name + "." + strconv.Itoa(shard)), so a test can fail every shard or
// exactly one.
const (
	// ShardDispatch fires at the top of every per-shard sub-query dispatch,
	// before the health check.
	ShardDispatch = "shard.dispatch"
	// ShardSlow fires at the start of each admitted dispatch attempt; enable
	// it with a Delay to simulate a slow shard without failing it (slow-shard
	// coverage: the dispatch waits it out within its budget).
	ShardSlow = "shard.slow"
	// ShardDown fires right after ShardSlow; enable it with an Err to
	// simulate a shard that is hard down.
	ShardDown = "shard.down"
)

// site is one enabled failpoint's mutable state.
type site struct {
	mu   sync.Mutex
	inj  Injection
	hits int
}

var (
	// active is the fast-path gate: number of currently enabled sites.
	active atomic.Int32

	mu    sync.Mutex
	sites map[string]*site
)

// Enable activates an injection for the named site, replacing any previous
// one (and resetting its hit count).
//
// Test seam for pathhist, pathhist/internal/query, pathhist/internal/sharded,
// pathhist/internal/snt, pathhist/internal/ttserve and pathhist/internal/wal.
func Enable(name string, inj Injection) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*site)
	}
	if _, ok := sites[name]; !ok {
		active.Add(1)
	}
	sites[name] = &site{inj: inj}
}

// Disable deactivates the named site. Disabling an inactive site is a
// no-op.
//
// Test seam for pathhist/internal/query, pathhist/internal/sharded,
// pathhist/internal/snt, pathhist/internal/ttserve and pathhist/internal/wal.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; ok {
		delete(sites, name)
		active.Add(-1)
	}
}

// Reset deactivates every site — the test-suite teardown.
//
// Test seam for pathhist, pathhist/internal/ttserve and pathhist/internal/wal.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Add(-int32(len(sites)))
	sites = nil
}

// Hits reports how many times the named site was reached since it was
// enabled (0 when not enabled).
//
// Test seam for pathhist/internal/query and pathhist/internal/sharded.
func Hits(name string) int {
	mu.Lock()
	s := sites[name]
	mu.Unlock()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Inject marks a fault-injection site. With no injection enabled for name
// it returns nil immediately (one atomic load when nothing is enabled
// process-wide). With one enabled it counts the hit and, when the
// SkipFirst/Times window says so, sleeps Delay, panics Panic, and/or
// returns Err.
func Inject(name string) error {
	if active.Load() == 0 {
		return nil
	}
	mu.Lock()
	s := sites[name]
	mu.Unlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.hits++
	fire := s.hits > s.inj.SkipFirst &&
		(s.inj.Times == 0 || s.hits <= s.inj.SkipFirst+s.inj.Times)
	inj := s.inj
	s.mu.Unlock()
	if !fire {
		return nil
	}
	if inj.Delay > 0 {
		time.Sleep(inj.Delay)
	}
	if inj.Panic != "" {
		panic(fmt.Sprintf("failpoint %s: %s", name, inj.Panic))
	}
	return inj.Err
}
