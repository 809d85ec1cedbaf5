//go:build race

package serve

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool deliberately drops a fraction of Puts —
// so nothing may be asserted about pool hits or per-query allocation.
const raceEnabled = true
