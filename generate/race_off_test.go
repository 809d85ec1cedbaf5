//go:build !race

package generate_test

// raceEnabled: see race_on_test.go.
const raceEnabled = false
