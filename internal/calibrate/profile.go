package calibrate

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"

	"pushpull/internal/core"
)

// profileVersion guards the JSON schema: a profile written by a different
// coefficient set is rejected instead of silently mis-pricing the planner.
const profileVersion = 1

// Profile is a fitted cost model plus the host and fit metadata it was
// measured under. Profiles are host-specific — coefficients fitted on one
// machine describe that machine's memory system — so the on-disk name is
// keyed by OS and architecture (DefaultName) and loading checks nothing
// beyond structural validity: a borrowed profile is legal, just probably
// mis-fitted, and the online corrector will bend it toward the truth.
type Profile struct {
	Version int    `json:"version"`
	OS      string `json:"os"`
	Arch    string `json:"arch"`
	CPUs    int    `json:"cpus"`
	// Scale is the calibration graphs' log₂ vertex count.
	Scale int `json:"scale"`
	// Observations is how many timed kernel invocations the fit saw.
	Observations int `json:"observations"`
	// ResidualFrac is the fit's RMS relative residual (0 = exact).
	ResidualFrac float64        `json:"residual_frac"`
	Model        core.CostModel `json:"model"`
}

// NewProfile stamps a model with the current host.
func NewProfile(m core.CostModel) *Profile {
	return &Profile{
		Version: profileVersion,
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Model:   m,
	}
}

// Validate rejects profiles that cannot price work: wrong schema version,
// negative or non-finite metadata, or an invalid model (NaN/Inf/negative/
// all-zero coefficients — see core.CostModel.Validate).
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("calibrate: nil profile")
	}
	if p.Version != profileVersion {
		return fmt.Errorf("calibrate: profile version %d, want %d", p.Version, profileVersion)
	}
	if p.CPUs < 0 || p.Scale < 0 || p.Observations < 0 {
		return fmt.Errorf("calibrate: profile metadata negative (cpus %d, scale %d, observations %d)", p.CPUs, p.Scale, p.Observations)
	}
	if math.IsNaN(p.ResidualFrac) || math.IsInf(p.ResidualFrac, 0) || p.ResidualFrac < 0 {
		return fmt.Errorf("calibrate: profile residual %v invalid", p.ResidualFrac)
	}
	if err := p.Model.Validate(); err != nil {
		return err
	}
	return nil
}

// DefaultName is the host-keyed profile filename, PPTUNE_<os>_<arch>.json
// — one per runner family, uploaded next to the BENCH_*.json artifacts in
// CI.
func DefaultName() string {
	return fmt.Sprintf("PPTUNE_%s_%s.json", runtime.GOOS, runtime.GOARCH)
}

// Save writes the profile as indented JSON.
func Save(path string, p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadLenient reads a profile like Load but degrades instead of failing: a
// missing, malformed, schema-drifted (stale version) or invalid profile
// logs one line through logf and returns nil, which callers treat as "run
// untuned" — the planner's zero-value unit cost model, always safe. Use it
// wherever a tuned run is an optimization rather than a requirement, so a
// corrupted PPTUNE file degrades a benchmark run instead of aborting it.
// logf may be nil to drop the diagnostic.
func LoadLenient(path string, logf func(format string, args ...any)) *Profile {
	p, err := Load(path)
	if err != nil {
		if logf != nil {
			logf("ignoring cost-model profile: %v (running untuned)", err)
		}
		return nil
	}
	return p
}

// Load reads and validates a profile; malformed JSON, schema drift and
// NaN/negative coefficients are all load errors, so a bad profile can
// never reach the planner.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("calibrate: %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("calibrate: %s: %w", path, err)
	}
	return &p, nil
}
