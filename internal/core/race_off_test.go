//go:build !race

package core

// raceEnabled relaxes the allocation gates when the race detector
// instruments the build (see race_on_test.go).
const raceEnabled = false
