package core

// Decision reasons: why a step ran a full signature search (research)
// or reused the retained signature set (refit). Reasons are stable
// strings so they survive JSON round-trips through the decision event
// log unchanged.
const (
	// ReasonReuseDisabled: reuse is off; every window re-searches
	// (batch-identical behavior).
	ReasonReuseDisabled = "reuse_disabled"
	// ReasonColdStart: no signature set retained yet (the pipeline's
	// first step).
	ReasonColdStart = "cold_start"
	// ReasonDriftMAPE: the realized prediction error grew past
	// MAPEGrowth × the baseline recorded at the last research.
	ReasonDriftMAPE = "drift_mape"
	// ReasonLowR2: the refitted dependent models' mean R² dropped below
	// ReusePolicy.MinR2.
	ReasonLowR2 = "low_r2"
	// ReasonMaxAge: the retained set hit ReusePolicy.MaxAge consecutive
	// reuse steps.
	ReasonMaxAge = "max_age"
	// ReasonRefitFailed: the refit itself failed (e.g. the retained
	// indices no longer span the window) and the step fell back to a
	// full search.
	ReasonRefitFailed = "refit_failed"
	// ReasonRefit: the retained signature set was reused (no research).
	ReasonRefit = "refit"
)

// Decision records what the most recent step decided about the spatial
// model — full research vs cheap refit — and why. It is the typed
// payload behind the engine's decision event log and the per-box debug
// endpoint.
type Decision struct {
	// Research reports a full signature search; false is a refit of the
	// retained set.
	Research bool `json:"research"`
	// Reason is one of the Reason* constants above.
	Reason string `json:"reason"`
	// Age is how many consecutive reuse steps the retained set had
	// served at decision time (0 right after a research).
	Age int `json:"age"`
}

// planDecision resolves the research-vs-refit choice for the next
// window from the retained reuse state. Pure read — the caller applies
// the bookkeeping after the search/refit actually runs.
func (p *Pipeline) planDecision() (research bool, reason string) {
	reuse := p.cfg.Reuse
	switch {
	case !reuse.Enabled:
		return true, ReasonReuseDisabled
	case p.sigs == nil:
		return true, ReasonColdStart
	case p.researchNext:
		if p.researchCause != "" {
			return true, p.researchCause
		}
		return true, ReasonDriftMAPE
	case p.age >= reuse.maxAge():
		return true, ReasonMaxAge
	}
	return false, ReasonRefit
}

// LastDecision returns the research/refit decision of the most recent
// step (the zero Decision before any step).
func (p *Pipeline) LastDecision() Decision { return p.lastDecision }
