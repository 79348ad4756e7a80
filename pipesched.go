package pipesched

import (
	"context"
	"fmt"

	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/portfolio"
	"pipesched/internal/sim"
	"pipesched/internal/workload"
)

// Core model types, re-exported from the internal packages. The aliases
// are transparent: values flow freely between the façade and any internal
// API an advanced user vendors in.
type (
	// Pipeline is an n-stage pipeline application (stage works w_k and
	// communication sizes δ_k).
	Pipeline = pipeline.Pipeline
	// Platform is a set of processors with speeds and link bandwidths.
	Platform = platform.Platform
	// Mapping assigns intervals of consecutive stages to distinct
	// processors.
	Mapping = mapping.Mapping
	// Interval is one element of a Mapping: stages [Start..End] on Proc.
	Interval = mapping.Interval
	// Metrics bundles the two antagonist criteria (period, latency).
	Metrics = mapping.Metrics
	// Evaluator computes periods and latencies for one
	// (pipeline, platform) pair.
	Evaluator = mapping.Evaluator
	// Result is a heuristic outcome: a mapping plus its metrics.
	Result = heuristics.Result
	// InfeasibleError reports a constraint a heuristic could not meet;
	// it carries the best mapping reached anyway.
	InfeasibleError = heuristics.InfeasibleError
	// PeriodConstrained minimises latency under a period bound (the
	// paper's H1–H4).
	PeriodConstrained = heuristics.PeriodConstrained
	// LatencyConstrained minimises period under a latency bound (H5–H6).
	LatencyConstrained = heuristics.LatencyConstrained
	// SimulationReport is the outcome of a discrete-event simulation.
	SimulationReport = sim.Report
	// SimulationOptions configures a simulation run.
	SimulationOptions = sim.Options
	// ExactResult is an optimal mapping with its metrics.
	ExactResult = exact.Result
	// ParetoPoint is one point of an exact (period, latency) front.
	ParetoPoint = exact.ParetoPoint
	// WorkloadFamily selects one of the paper's experiment families
	// E1–E4.
	WorkloadFamily = workload.Family
	// WorkloadConfig describes one random instance to generate.
	WorkloadConfig = workload.Config
	// WorkloadInstance is a generated application/platform pair.
	WorkloadInstance = workload.Instance
)

// The four experiment families of the paper's evaluation (Section 5.1).
const (
	E1 = workload.E1 // balanced comm/comp, homogeneous communications
	E2 = workload.E2 // balanced comm/comp, heterogeneous communications
	E3 = workload.E3 // large computations
	E4 = workload.E4 // small computations
)

// NewPipeline builds a pipeline from stage works (length n) and
// communication sizes (length n+1: δ_0..δ_n).
func NewPipeline(works, deltas []float64) (*Pipeline, error) {
	return pipeline.New(works, deltas)
}

// NewPlatform builds a Communication Homogeneous platform from processor
// speeds and the common link bandwidth b.
func NewPlatform(speeds []float64, bandwidth float64) (*Platform, error) {
	return platform.New(speeds, bandwidth)
}

// NewFullyHeterogeneousPlatform builds a platform with per-link
// bandwidths (the paper's future-work extension; links[u][v] = b_{u+1,v+1}).
func NewFullyHeterogeneousPlatform(speeds []float64, links [][]float64) (*Platform, error) {
	return platform.NewFullyHeterogeneous(speeds, links)
}

// NewEvaluator binds a pipeline and platform into the cost model of
// equations (1) and (2).
func NewEvaluator(app *Pipeline, plat *Platform) *Evaluator {
	return mapping.NewEvaluator(app, plat)
}

// NewMapping validates an explicit interval mapping.
func NewMapping(app *Pipeline, plat *Platform, ivs []Interval) (*Mapping, error) {
	return mapping.New(app, plat, ivs)
}

// SingleProcessorMapping maps the whole pipeline onto processor u; with
// u = plat.Fastest() this is the latency-optimal mapping (Lemma 1).
func SingleProcessorMapping(app *Pipeline, plat *Platform, u int) *Mapping {
	return mapping.SingleProcessor(app, plat, u)
}

// PeriodHeuristics returns the paper's four period-constrained heuristics
// in order: H1 "Sp mono, P fix", H2 "3-Explo mono", H3 "3-Explo bi",
// H4 "Sp bi, P fix".
func PeriodHeuristics() []PeriodConstrained { return heuristics.PeriodHeuristics() }

// LatencyHeuristics returns the paper's two latency-constrained
// heuristics: H5 "Sp mono, L fix" and H6 "Sp bi, L fix".
func LatencyHeuristics() []LatencyConstrained { return heuristics.LatencyHeuristics() }

// BestUnderPeriod races all four period-constrained heuristics and
// returns the feasible result with the smallest latency (ties: smallest
// period). The selection is deterministic
// and identical to running the heuristics sequentially. It returns an
// error only when every heuristic fails, wrapping the failure that came
// closest to the bound.
func BestUnderPeriod(ev *Evaluator, maxPeriod float64) (Result, error) {
	out, found, closest := portfolio.UnderPeriod(context.Background(), ev, maxPeriod, portfolio.SolveOptions{})
	if !found {
		return Result{}, fmt.Errorf("pipesched: no heuristic reached period ≤ %g: %w", maxPeriod, closest)
	}
	return out.Result, nil
}

// BestUnderLatency races both latency-constrained heuristics and returns
// the feasible result with the smallest period. The selection is deterministic and identical to running
// the heuristics sequentially.
func BestUnderLatency(ev *Evaluator, maxLatency float64) (Result, error) {
	out, found, closest := portfolio.UnderLatency(context.Background(), ev, maxLatency, portfolio.SolveOptions{})
	if !found {
		return Result{}, fmt.Errorf("pipesched: latency bound %g below the optimum: %w", maxLatency, closest)
	}
	return out.Result, nil
}

// OptimalLatency returns the latency-optimal mapping and its latency
// (everything on the fastest processor — Lemma 1 of the paper).
func OptimalLatency(ev *Evaluator) (*Mapping, float64) { return ev.OptimalLatency() }

// PeriodLowerBound returns a cheap valid lower bound on the period of any
// interval mapping; useful for anchoring sweeps and sanity checks.
func PeriodLowerBound(ev *Evaluator) float64 { return lowerbound.Period(ev) }

// ExactMinPeriod computes the optimal-period mapping with the
// speed-class-compressed dynamic program. Platforms are accepted whenever
// their compressed state space ∏(c_k+1) over the speed-class sizes c_k
// stays within the solver budget (see ExactEligible) — the raw processor
// count does not matter, so few-class platforms far beyond the historical
// 14-processor ceiling solve exactly.
func ExactMinPeriod(ev *Evaluator) (ExactResult, error) { return exact.MinPeriod(ev) }

// ExactMinLatencyUnderPeriod computes the optimal latency achievable under
// a period bound (exponential in the speed-class structure; see
// ExactEligible).
func ExactMinLatencyUnderPeriod(ev *Evaluator, maxPeriod float64) (ExactResult, error) {
	return exact.MinLatencyUnderPeriod(ev, maxPeriod)
}

// ExactMinPeriodUnderLatency computes the optimal period achievable under
// a latency bound (exponential in the speed-class structure; see
// ExactEligible).
func ExactMinPeriodUnderLatency(ev *Evaluator, maxLatency float64) (ExactResult, error) {
	return exact.MinPeriodUnderLatency(ev, maxLatency)
}

// ExactParetoFront enumerates the exact (period, latency) Pareto front
// (exponential in the speed-class structure; see ExactEligible).
func ExactParetoFront(ev *Evaluator) ([]ParetoPoint, error) { return exact.ParetoFront(ev) }

// ExactEligible reports whether the exact solvers accept the platform:
// Communication Homogeneous with a compressed state space ∏(c_k+1) of at
// most 2^16 over its speed-class sizes. Every platform of up to 16
// processors qualifies regardless of speeds; larger platforms qualify
// when their distinct-speed structure is small (e.g. 100 homogeneous
// processors are 101 states). This is also the gate the portfolio and
// batch engines key their exact-DP participation on.
func ExactEligible(plat *Platform) bool { return exact.Eligible(plat) }

// Simulate pushes opts.DataSets data sets through m under the one-port
// discrete-event model and reports measured period, latencies and
// utilizations.
func Simulate(ev *Evaluator, m *Mapping, opts SimulationOptions) (SimulationReport, error) {
	return sim.Run(ev, m, opts)
}

// ValidateModel simulates m long enough to reach steady state and checks
// the measured period and latency against equations (1) and (2) within
// the relative tolerance tol.
func ValidateModel(ev *Evaluator, m *Mapping, tol float64) error {
	return sim.ValidateModel(ev, m, tol)
}

// GenerateWorkload draws one random application/platform pair from one of
// the paper's experiment families.
func GenerateWorkload(cfg WorkloadConfig) WorkloadInstance { return workload.Generate(cfg) }

// SplitFullyHet runs the splitting heuristic extended to fully
// heterogeneous platforms (free processor choice, link-aware evaluation).
func SplitFullyHet(ev *Evaluator, maxPeriod float64) (Result, error) {
	return heuristics.SplitFullyHet(ev, maxPeriod)
}
