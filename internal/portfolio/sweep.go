package portfolio

import (
	"context"
	"math"
	"runtime"

	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
)

// sweepSerialCells is the instance size (stages × processors) at or
// below which a sweep runs its lanes on one goroutine. A sweep hands one
// long-lived lane per heuristic to an idle pool worker, and each lane
// must amortise that handoff and its sweeper allocation over the grid,
// and warm-started grid points are cheap, so the break-even instance is
// large. BENCH_8 showed the parallel sweep losing to serial on the
// 1200-cell bench instance (819µs vs 762µs); under this threshold that
// instance takes the serial lane, and the paper-scale 4000-cell sweep
// keeps its fan-out.
const sweepSerialCells = 2048

// sweepSerialFallback reports whether ParetoSweep should collapse to one
// lane. It can only remove scheduling overhead: candidates aggregate in
// grid order either way, so the frontier is identical.
func sweepSerialFallback(ev *mapping.Evaluator) bool {
	return runtime.GOMAXPROCS(0) == 1 ||
		ev.Pipeline().Stages()*ev.Platform().Processors() <= sweepSerialCells
}

// TradeoffPoint is one point of a heuristic trade-off frontier: a concrete
// mapping together with its metrics.
type TradeoffPoint struct {
	Metrics mapping.Metrics
	Mapping *mapping.Mapping
}

// ParetoSweep traces an approximate Pareto frontier using only polynomial
// heuristics: it sweeps points period bounds between the period lower
// bound and the single-processor period, runs the platform's
// period-constrained lane (H1–H4 on comm-homogeneous platforms, F1 on
// fully heterogeneous ones) plus its latency-constrained lane (fed with
// the latencies discovered so far), and returns the non-dominated results
// sorted by increasing period.
//
// Unlike the exact front this scales to large platforms (nothing
// exponential); the returned frontier is a superset-dominated
// approximation of the true front — every returned point is achievable,
// none dominates another, but better points may exist.
//
// The sweep is warm-started: each heuristic owns one lane that walks the
// shared sorted bound grid monotonically on a single pooled engine
// (heuristics.PeriodSweeper / LatencySweeper), so adjacent grid points
// extend the splitting trajectory instead of recomputing its prefix,
// repeated results are reused without re-enumeration, and a lane stops as
// soon as its heuristic's failure threshold is crossed. Lanes fan out
// through Map, at most workers at once (0 selects GOMAXPROCS); every
// per-point result is bit-identical to a fresh run, and candidates are
// aggregated in grid order, so the frontier is identical to the
// historical point-by-point sweep. Cancelling ctx stops lanes between
// grid points; points never reached are simply absent, exactly as if the
// grid had been truncated.
func ParetoSweep(ctx context.Context, ev *mapping.Evaluator, points, workers int) []TradeoffPoint {
	if points < 2 {
		points = 2
	}
	// Small instances (and single-processor hosts) take the inline
	// single-lane path: the per-point solves are microseconds, so handing
	// lanes to pool workers would cost more than they overlap.
	// Candidates aggregate in grid order either way — the frontier is
	// bit-identical to the fanned-out sweep.
	if sweepSerialFallback(ev) {
		workers = 1
	}
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	lo := lowerbound.Period(ev)
	hi := ev.Period(single)

	type cell struct {
		res heuristics.Result
		ok  bool
	}

	// Phase 1: period-constrained lanes, each walking the bound grid
	// loosest-first (trajectories only ever extend).
	periodRows, _ := Map(ctx, workers, periodSolvers(ev.Platform()), func(ctx context.Context, h heuristics.PeriodConstrained) []cell {
		sw := heuristics.NewPeriodSweeper(ev, h)
		defer sw.Close()
		row := make([]cell, points)
		for i := points - 1; i >= 0; i-- {
			if ctx.Err() != nil {
				break
			}
			bound := lo + (hi-lo)*float64(i)/float64(points-1)
			res, err := sw.Solve(bound)
			if err != nil {
				// Failure thresholds are monotone: every tighter bound
				// fails too, contributing nothing.
				break
			}
			if res.Mapping != nil {
				row[i] = cell{res: res, ok: true}
			}
		}
		return row
	})
	var raw []TradeoffPoint
	for i := 0; i < points; i++ {
		for _, row := range periodRows {
			if row != nil && row[i].ok {
				raw = append(raw, TradeoffPoint{Metrics: row[i].res.Metrics, Mapping: row[i].res.Mapping})
			}
		}
	}

	// Phase 2: feed the latency range the period sweep discovered back
	// through the latency-constrained heuristics — they sometimes find
	// better periods at equal latency. Budgets ascend, matching the
	// LatencySweeper warm-start contract.
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	for _, pt := range raw {
		minLat = math.Min(minLat, pt.Metrics.Latency)
		maxLat = math.Max(maxLat, pt.Metrics.Latency)
	}
	if len(raw) > 0 && maxLat > minLat {
		latRows, _ := Map(ctx, workers, latencySolvers(ev.Platform()), func(ctx context.Context, h heuristics.LatencyConstrained) []cell {
			sw := heuristics.NewLatencySweeper(ev, h)
			defer sw.Close()
			row := make([]cell, points)
			for i := 0; i < points; i++ {
				if ctx.Err() != nil {
					break
				}
				budget := minLat + (maxLat-minLat)*float64(i)/float64(points-1)
				res, err := sw.Solve(budget)
				if err == nil && res.Mapping != nil {
					row[i] = cell{res: res, ok: true}
				}
			}
			return row
		})
		for i := 0; i < points; i++ {
			for _, row := range latRows {
				if row != nil && row[i].ok {
					raw = append(raw, TradeoffPoint{Metrics: row[i].res.Metrics, Mapping: row[i].res.Mapping})
				}
			}
		}
	}

	// Dominance prune through the shared frontier filter.
	metrics := make([]mapping.Metrics, len(raw))
	for i, pt := range raw {
		metrics[i] = pt.Metrics
	}
	var front []TradeoffPoint
	for _, i := range mapping.Frontier(metrics) {
		front = append(front, raw[i])
	}
	return front
}
