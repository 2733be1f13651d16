//go:build race

package ttserve

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of the values put back, so allocation counts are not repeatable there.
const raceEnabled = true
