//go:build race

package stmtest

// raceEnabled reports that the race detector is on (≈30× slower engine
// transactions): the long hammers scale their iteration counts by it.
const raceEnabled = true
