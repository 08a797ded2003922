//go:build race

package hbserve

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a random share of what is put back, so a pooled path's
// allocation count is not a property of the code.
const raceEnabled = true
