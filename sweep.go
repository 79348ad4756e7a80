package pipesched

import (
	"context"
	"fmt"

	"pipesched/internal/portfolio"
	"pipesched/internal/sim"
)

// TradeoffPoint is one point of a heuristic trade-off frontier: a concrete
// mapping together with its metrics.
type TradeoffPoint = portfolio.TradeoffPoint

// HeuristicParetoSweep traces an approximate Pareto frontier using only
// polynomial heuristics: it sweeps `points` period bounds between the
// period lower bound and the single-processor period, runs the
// platform's period-constrained lane (the paper's H1–H4 on
// comm-homogeneous platforms, the free-processor-choice F1 on fully
// heterogeneous ones) plus its latency-constrained lane (fed with the
// latencies discovered so far), and returns the non-dominated results
// sorted by increasing period.
//
// Unlike ExactParetoFront this scales to large platforms (nothing
// exponential); the returned frontier is a superset-dominated
// approximation of the true front — every returned point is achievable,
// none dominates another, but better points may exist.
//
// The sweep is warm-started: each heuristic owns one lane that walks the
// sorted bound grid on a single pooled engine, extending its splitting
// trajectory across adjacent grid points instead of recomputing the
// shared prefix, reusing repeated results outright, and stopping at the
// heuristic's failure threshold. Lanes fan out to idle solver-pool
// workers, at most GOMAXPROCS at once; every per-point result is
// bit-identical to a fresh run and candidates are aggregated in grid
// order, so the frontier is identical to the historical point-by-point
// sweep. The sweep core lives in internal/portfolio (ParetoSweep), where
// the serving layer reaches it with per-request contexts.
func HeuristicParetoSweep(ev *Evaluator, points int) []TradeoffPoint {
	return portfolio.ParetoSweep(context.Background(), ev, points, 0)
}

// SimulationTrace is a fully evented simulation run; see Gantt.
type SimulationTrace = sim.Trace

// SimulationEvent is one operation of a traced run.
type SimulationEvent = sim.Event

// SimulateTraced runs the discrete-event simulator recording every
// receive/compute/send operation; use the result's Gantt method (or the
// Gantt helper below) to visualise pipeline behaviour. Intended for small
// data-set counts.
func SimulateTraced(ev *Evaluator, m *Mapping, opts SimulationOptions) (SimulationTrace, error) {
	return sim.RunTraced(ev, m, opts)
}

// Gantt renders a traced simulation as an ASCII Gantt chart, one row per
// processor, covering [0, maxTime) (0 = whole makespan).
func Gantt(tr SimulationTrace, width int, maxTime float64) string {
	return tr.Gantt(width, maxTime)
}

// FormatTradeoff renders a frontier as an aligned text table.
func FormatTradeoff(front []TradeoffPoint) string {
	if len(front) == 0 {
		return "(empty frontier)\n"
	}
	out := fmt.Sprintf("%10s %10s  mapping\n", "period", "latency")
	for _, pt := range front {
		out += fmt.Sprintf("%10.4g %10.4g  %v\n", pt.Metrics.Period, pt.Metrics.Latency, pt.Mapping)
	}
	return out
}
