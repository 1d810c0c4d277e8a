package secmodel

import (
	"encoding/json"
	"fmt"
)

// Tune is the E8-style auto-tuner: the paper's conclusions leave choosing
// size/bound schedules as an open problem, and E8 showed the choice
// trades cost, not correctness — for sound schedules. Tune closes the
// loop empirically: it measures candidate schedules (including
// deliberately weakened ones) with the Sweep instrument and proposes the
// cheapest candidate whose measured failure rate still honors the target
// epsilon. Weak candidates are the point, not a bug: their measured
// violations are what anchors the empirical model to reality — the
// instrument demonstrably detects schedules that break.

// TuneConfig bounds one tuning run. Zero fields take the defaults noted.
type TuneConfig struct {
	// Messages, Trials, MaxSteps and Seed parameterize the underlying
	// sweep exactly as in SweepConfig.
	Messages int
	Trials   int
	MaxSteps int
	Seed     int64
}

// tuneEpsilon is the target per-message error probability every proposed
// schedule must honor: core-level 2^-12.
const tuneEpsilon = 1.0 / (1 << 12)

// candidates are the schedules Tune measures: the E8 ablation family plus
// the reckless probes. The sound variants compete on cost, the weakened
// ones calibrate the instrument (they must be measured as broken, or the
// sweep has no teeth).
func candidates() []Schedule {
	return []Schedule{
		{Name: "paper"},
		{Name: "eager-bound1", BoundConst: 1},
		{Name: "lazy-bound64", BoundConst: 64},
		{Name: "thin-size8", SizeConst: 8},
		{Name: "reckless-size4", SizeConstAll: 4, BoundConst: 64},
		{Name: "reckless-size2", SizeConstAll: 2, BoundConst: 64},
	}
}

// CandidateResult is one measured candidate.
type CandidateResult struct {
	Schedule Schedule    `json:"schedule"`
	Measured PointResult `json:"measured"`
	// CostPerMsg is the candidate's traffic cost: DATA plus CTL packets
	// per completed message.
	CostPerMsg float64 `json:"costPerMsg"`
	// Admissible reports that the measured failure rate honored the
	// target epsilon and the run made progress.
	Admissible bool `json:"admissible"`
}

// TuneResult is the tuner's JSON artifact.
type TuneResult struct {
	Epsilon    float64           `json:"epsilon"`
	Seed       int64             `json:"seed"`
	Candidates []CandidateResult `json:"candidates"`
	// Proposed is the cheapest admissible candidate's schedule name.
	Proposed string `json:"proposed"`
}

// Proposal returns the proposed candidate, or nil if nothing was
// admissible.
func (r TuneResult) Proposal() *CandidateResult {
	for i := range r.Candidates {
		if r.Candidates[i].Schedule.Label() == r.Proposed && r.Candidates[i].Admissible {
			return &r.Candidates[i]
		}
	}
	return nil
}

// JSON renders the tuning run as an indented JSON artifact.
func (r TuneResult) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err.Error())
	}
	return string(b)
}

// Tune measures every candidate under the sweep's adversary mix at the
// target epsilon and proposes the cheapest admissible schedule. The
// result is a pure function of cfg.
func Tune(cfg TuneConfig) (TuneResult, error) {
	res := TuneResult{Epsilon: tuneEpsilon, Seed: cfg.Seed}
	sweepCfg := SweepConfig{
		Messages: cfg.Messages,
		Trials:   cfg.Trials,
		MaxSteps: cfg.MaxSteps,
		Seed:     cfg.Seed,
	}.withDefaults()

	best := -1
	for ci, cand := range candidates() {
		pt := Point{Schedule: cand, Epsilon: tuneEpsilon}
		measured, err := measure(pt, sweepCfg, int64(ci))
		if err != nil {
			return res, err
		}
		cr := CandidateResult{
			Schedule:   cand,
			Measured:   measured,
			CostPerMsg: measured.DataPerMsg + measured.CtlPerMsg,
			// A candidate that never completes a message has an
			// unmeasurable cost and cannot be proposed, however clean
			// its (empty) record looks.
			Admissible: measured.WithinEpsilon && measured.Completed > 0,
		}
		res.Candidates = append(res.Candidates, cr)
		if !cr.Admissible {
			continue
		}
		if best < 0 || cr.CostPerMsg < res.Candidates[best].CostPerMsg ||
			(cr.CostPerMsg == res.Candidates[best].CostPerMsg &&
				cr.Measured.MaxRhoBits < res.Candidates[best].Measured.MaxRhoBits) {
			best = ci
		}
	}
	if best >= 0 {
		res.Proposed = res.Candidates[best].Schedule.Label()
	}
	return res, nil
}
