//go:build !race

package stmtest

const raceEnabled = false
