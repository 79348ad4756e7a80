package portfolio

import (
	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
)

// referenceUnderPeriod is the oracle UnderPeriod is tested against: every
// member runs to completion in portfolio order with no incumbent — the
// heuristics through MinimizeLatency, the DP through the uncut
// exact.MinLatencyUnderPeriod — and pickUnderPeriod selects among them.
func referenceUnderPeriod(ev *mapping.Evaluator, maxPeriod float64, opts SolveOptions) (Outcome, bool, error) {
	var attempts []attempt
	for _, h := range periodSolvers(ev.Platform()) {
		res, err := h.MinimizeLatency(ev, maxPeriod)
		attempts = append(attempts, attempt{id: h.ID(), res: res, err: err})
	}
	if exactApplies(ev, opts) {
		r, err := exact.MinLatencyUnderPeriod(ev, maxPeriod)
		attempts = append(attempts, attempt{id: ExactID, res: heuristics.Result{Mapping: r.Mapping, Metrics: r.Metrics}, err: err})
	}
	return pickUnderPeriod(attempts)
}

// referenceUnderLatency is referenceUnderPeriod's twin for UnderLatency:
// MinimizePeriod, the uncut exact.MinPeriodUnderLatency and
// pickUnderLatency.
func referenceUnderLatency(ev *mapping.Evaluator, maxLatency float64, opts SolveOptions) (Outcome, bool, error) {
	var attempts []attempt
	for _, h := range latencySolvers(ev.Platform()) {
		res, err := h.MinimizePeriod(ev, maxLatency)
		attempts = append(attempts, attempt{id: h.ID(), res: res, err: err})
	}
	if exactApplies(ev, opts) {
		r, err := exact.MinPeriodUnderLatency(ev, maxLatency)
		attempts = append(attempts, attempt{id: ExactID, res: heuristics.Result{Mapping: r.Mapping, Metrics: r.Metrics}, err: err})
	}
	return pickUnderLatency(attempts)
}
