//go:build !race

package ttserve

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
