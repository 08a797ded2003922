//go:build race

package main

// raceEnabled reports a -race build, under which the full-length NoC
// regeneration is too slow to run.
const raceEnabled = true
