//go:build race

package main

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool deliberately drops a fraction of Puts —
// so nothing may be asserted about pool hits or per-request allocation.
const raceEnabled = true
