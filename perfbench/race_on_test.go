//go:build race

package main

// raceEnabled reports whether the race detector is on. Its slowdown makes
// the open-loop phases fall behind their schedule, so smoke runs under it
// accept requests the generator could not send in time.
const raceEnabled = true
