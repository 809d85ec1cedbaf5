//go:build !race

package serve

// raceEnabled: see race_on_test.go.
const raceEnabled = false
