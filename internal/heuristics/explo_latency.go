package heuristics

import "pipesched/internal/mapping"

// The paper defines 3-Exploration only for the period-constrained
// direction (H2, H3) and plain splitting for both directions. The two
// types below complete the matrix as an ablation: 3-way exploration under
// a latency budget. They follow exactly the H5/H6 contract (start from the
// latency optimum, split while the budget holds) with the H2/H3 move set
// (3-way splits over the next two fastest unused processors, falling back
// to 2-way). EXPERIMENTS.md and BenchmarkExploLatencyAblation quantify
// what the richer move set buys once a latency budget, rather than a
// period target, limits the search.

// ThreeExploMonoL is the latency-constrained analogue of ThreeExploMono.
type ThreeExploMonoL struct{ commHomogeneousOnly }

// Name implements LatencyConstrained.
func (ThreeExploMonoL) Name() string { return "3-Explo mono, L fix" }

// ID implements LatencyConstrained. X-prefixed identifiers mark
// extensions that have no counterpart in the paper's Table 1.
func (ThreeExploMonoL) ID() string { return "X7" }

// MinimizePeriod implements LatencyConstrained.
func (h ThreeExploMonoL) MinimizePeriod(ev *mapping.Evaluator, maxLatency float64) (Result, error) {
	return latencyConstrainedExplo(ev, maxLatency, selectMono, h.Name())
}

// ThreeExploBiL is the latency-constrained analogue of ThreeExploBi.
type ThreeExploBiL struct{ commHomogeneousOnly }

// Name implements LatencyConstrained.
func (ThreeExploBiL) Name() string { return "3-Explo bi, L fix" }

// ID implements LatencyConstrained.
func (ThreeExploBiL) ID() string { return "X8" }

// MinimizePeriod implements LatencyConstrained.
func (h ThreeExploBiL) MinimizePeriod(ev *mapping.Evaluator, maxLatency float64) (Result, error) {
	return latencyConstrainedExplo(ev, maxLatency, selectBi, h.Name())
}

func latencyConstrainedExplo(ev *mapping.Evaluator, maxLatency float64, rule selectRule, name string) (Result, error) {
	return latencyConstrained(ev, maxLatency, splitOptions{rule: rule, threeWay: true, maxLatency: maxLatency}, name, nil)
}

// ExtensionLatencyHeuristics returns the two latency-constrained
// 3-Exploration extensions (not part of the paper's H1–H6 set).
func ExtensionLatencyHeuristics() []LatencyConstrained {
	return []LatencyConstrained{ThreeExploMonoL{}, ThreeExploBiL{}}
}
