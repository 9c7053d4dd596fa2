//go:build race

package mpi

// raceEnabled reports a race-detector build, whose sync.Pool drops a random
// share of the records put back, so pool reuse cannot be measured.
const raceEnabled = true
