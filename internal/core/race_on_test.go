//go:build race

package core

// raceEnabled relaxes the allocation gates when the race detector
// instruments the build: it makes sync.Pool drop entries at random, so
// pooled batches are reallocated.
const raceEnabled = true
