// Package policy is the backend-agnostic guard-rail layer of the
// actuation stack: operator-authored min/max/step clamps and write
// rate limits, loaded from a config file and enforced in front of any
// actuator.Backend before a single byte reaches the target. The paper
// trusts its sizing models enough to actuate them; operators running
// the loop against production hypervisors get a declarative place to
// say "no model output may halve a database VM in one step" without
// caring whether the write lands on a cgroups daemon or the simulated
// testbed.
package policy

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"atm/internal/actuator"
)

// Rule bounds the limits one group of VMs may be resized to. Zero
// fields are unbounded, so a rule constrains only what it names.
type Rule struct {
	// Match selects VM ids: "" or "*" match everything, a trailing
	// "*" matches the prefix ("wiki-one-*"), anything else is exact.
	// The first matching rule in config order wins.
	Match string `json:"match"`
	// MinCPUGHz / MaxCPUGHz bound the absolute CPU limit.
	MinCPUGHz float64 `json:"min_cpu_ghz,omitempty"`
	MaxCPUGHz float64 `json:"max_cpu_ghz,omitempty"`
	// MinRAMGB / MaxRAMGB bound the absolute RAM limit.
	MinRAMGB float64 `json:"min_ram_gb,omitempty"`
	MaxRAMGB float64 `json:"max_ram_gb,omitempty"`
	// MaxStepCPUGHz / MaxStepRAMGB bound how far one write may move a
	// limit from its current value — the brake that turns a wild model
	// output into a gradual ramp. Steps need the backend to support
	// reads; unknown current limits skip the step check.
	MaxStepCPUGHz float64 `json:"max_step_cpu_ghz,omitempty"`
	MaxStepRAMGB  float64 `json:"max_step_ram_gb,omitempty"`
}

// Matches reports whether the rule selects the id.
func (r Rule) Matches(id string) bool {
	switch {
	case r.Match == "" || r.Match == "*":
		return true
	case strings.HasSuffix(r.Match, "*"):
		return strings.HasPrefix(id, strings.TrimSuffix(r.Match, "*"))
	default:
		return r.Match == id
	}
}

// Modes for handling a violating write.
const (
	// ModeClamp applies the nearest in-bounds value and records the
	// violation — the forgiving default for autonomous operation.
	ModeClamp = "clamp"
	// ModeReject refuses the whole write with a terminal error.
	ModeReject = "reject"
)

// Config is the operator policy file: a violation mode, a write rate
// limit, and an ordered rule list.
type Config struct {
	// Mode is ModeClamp (default) or ModeReject.
	Mode string `json:"mode,omitempty"`
	// RatePerSec caps mutating calls per second across the backend
	// (token bucket); 0 disables rate limiting.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token bucket depth; 0 selects max(1, ceil(rate)).
	Burst float64 `json:"burst,omitempty"`
	// Rules are evaluated in order; first match wins. No match means
	// the write is unconstrained.
	Rules []Rule `json:"rules,omitempty"`
}

// Validate rejects configs that cannot be enforced coherently.
func (c Config) Validate() error {
	switch c.Mode {
	case "", ModeClamp, ModeReject:
	default:
		return fmt.Errorf("policy: unknown mode %q (want %q or %q)", c.Mode, ModeClamp, ModeReject)
	}
	if c.RatePerSec < 0 || math.IsNaN(c.RatePerSec) || math.IsInf(c.RatePerSec, 0) {
		return fmt.Errorf("policy: rate_per_sec %v out of range", c.RatePerSec)
	}
	if c.Burst < 0 {
		return fmt.Errorf("policy: burst %v out of range", c.Burst)
	}
	for i, r := range c.Rules {
		for _, f := range []struct {
			name     string
			min, max float64
		}{
			{"cpu_ghz", r.MinCPUGHz, r.MaxCPUGHz},
			{"ram_gb", r.MinRAMGB, r.MaxRAMGB},
		} {
			if f.min < 0 || f.max < 0 {
				return fmt.Errorf("policy: rule %d (%q): negative %s bound", i, r.Match, f.name)
			}
			if f.min > 0 && f.max > 0 && f.min > f.max {
				return fmt.Errorf("policy: rule %d (%q): min %s %v > max %v", i, r.Match, f.name, f.min, f.max)
			}
		}
		if r.MaxStepCPUGHz < 0 || r.MaxStepRAMGB < 0 {
			return fmt.Errorf("policy: rule %d (%q): negative step bound", i, r.Match)
		}
	}
	return nil
}

// mode returns the effective violation mode.
func (c Config) mode() string {
	if c.Mode == "" {
		return ModeClamp
	}
	return c.Mode
}

// RuleFor returns the first rule matching id.
func (c Config) RuleFor(id string) (Rule, bool) {
	for _, r := range c.Rules {
		if r.Matches(id) {
			return r, true
		}
	}
	return Rule{}, false
}

// Parse decodes a policy config, rejecting unknown fields (an
// operator's typoed "max_cpu_gz" must not silently unbound a rail).
func Parse(data []byte) (Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("policy: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Load reads and parses a policy config file.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("policy: %w", err)
	}
	return Parse(data)
}

// Violation records one rail a proposed write crossed.
type Violation struct {
	// Field is "cpu_ghz" or "ram_gb".
	Field string `json:"field"`
	// Kind is "min", "max" or "step".
	Kind string `json:"kind"`
	// Proposed is the value the caller asked for, Bound the rail it
	// crossed, Applied the value clamping produced (equal to Proposed
	// in reject mode, where nothing is written anyway).
	Proposed float64 `json:"proposed"`
	Bound    float64 `json:"bound"`
	Applied  float64 `json:"applied"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s %s rail: proposed %.4g, bound %.4g, applied %.4g",
		v.Field, v.Kind, v.Proposed, v.Bound, v.Applied)
}

// clampField runs one resource through its min/max/step rails.
func clampField(field string, proposed float64, min, max, step float64, current float64, haveCurrent bool) (float64, []Violation) {
	applied := proposed
	var out []Violation
	record := func(kind string, bound float64) {
		out = append(out, Violation{Field: field, Kind: kind, Proposed: proposed, Bound: bound, Applied: applied})
	}
	if min > 0 && applied < min {
		applied = min
		record("min", min)
	}
	if max > 0 && applied > max {
		applied = max
		record("max", max)
	}
	if step > 0 && haveCurrent {
		switch {
		case applied > current+step:
			applied = current + step
			record("step", step)
		case applied < current-step:
			applied = current - step
			record("step", step)
		}
	}
	// Fix up recorded Applied values to the final result: a write can
	// cross two rails (min then step) and each record should show what
	// actually lands.
	for i := range out {
		out[i].Applied = applied
	}
	return applied, out
}

// Apply runs one proposed write through the rails: min/max first, then
// the step brake relative to current (skipped when current is nil —
// an unknown or newly created group has no baseline to step from).
// It returns the value that should be written and every rail crossed;
// in ModeClamp the caller writes the returned limits, in ModeReject a
// non-empty violation list means the write must be refused.
func (c Config) Apply(id string, current *actuator.Limits, target actuator.Limits) (actuator.Limits, []Violation) {
	r, ok := c.RuleFor(id)
	if !ok {
		return target, nil
	}
	applied := target
	var cur actuator.Limits
	have := current != nil
	if have {
		cur = *current
	}
	cpu, vcpu := clampField("cpu_ghz", target.CPUGHz, r.MinCPUGHz, r.MaxCPUGHz, r.MaxStepCPUGHz, cur.CPUGHz, have)
	ram, vram := clampField("ram_gb", target.RAMGB, r.MinRAMGB, r.MaxRAMGB, r.MaxStepRAMGB, cur.RAMGB, have)
	applied.CPUGHz, applied.RAMGB = cpu, ram
	return applied, append(vcpu, vram...)
}
