//go:build !race

package main

// raceEnabled: see race_on_test.go.
const raceEnabled = false
