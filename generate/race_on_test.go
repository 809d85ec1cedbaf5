//go:build race

package generate_test

// raceEnabled reports that this test binary was built with the race
// detector, which slows the benchmark-sized graph's build past a unit test's
// budget.
const raceEnabled = true
