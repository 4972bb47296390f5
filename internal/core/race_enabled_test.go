//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops Puts at
// random; see TestLocateZeroAllocSteadyState.
const raceEnabled = true
