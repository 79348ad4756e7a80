package portfolio

import (
	"context"
	"math"
	"runtime"
	"testing"

	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/workload"
)

// naiveSweep is the reference sweep: fresh heuristic runs at every grid
// point, serial, exactly as the pre-warm-start implementation dispatched
// them. ParetoSweep must reproduce its frontier bit for bit.
func naiveSweep(ev *mapping.Evaluator, points int) []TradeoffPoint {
	if points < 2 {
		points = 2
	}
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	lo := lowerbound.Period(ev)
	hi := ev.Period(single)
	var raw []TradeoffPoint
	add := func(res heuristics.Result, err error) {
		if err != nil || res.Mapping == nil {
			return
		}
		raw = append(raw, TradeoffPoint{Metrics: res.Metrics, Mapping: res.Mapping})
	}
	for i := 0; i < points; i++ {
		bound := lo + (hi-lo)*float64(i)/float64(points-1)
		for _, h := range heuristics.PeriodHeuristics() {
			add(h.MinimizeLatency(ev, bound))
		}
	}
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	for _, pt := range raw {
		minLat = math.Min(minLat, pt.Metrics.Latency)
		maxLat = math.Max(maxLat, pt.Metrics.Latency)
	}
	if len(raw) > 0 && maxLat > minLat {
		for i := 0; i < points; i++ {
			budget := minLat + (maxLat-minLat)*float64(i)/float64(points-1)
			for _, h := range heuristics.LatencyHeuristics() {
				add(h.MinimizePeriod(ev, budget))
			}
		}
	}
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

func sameFront(t *testing.T, label string, got, want []TradeoffPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: frontier size %d != reference %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Metrics.Period) != math.Float64bits(w.Metrics.Period) ||
			math.Float64bits(g.Metrics.Latency) != math.Float64bits(w.Metrics.Latency) {
			t.Fatalf("%s: point %d metrics %+v != reference %+v", label, i, g.Metrics, w.Metrics)
		}
		if g.Mapping.String() != w.Mapping.String() {
			t.Fatalf("%s: point %d mapping %v != reference %v", label, i, g.Mapping, w.Mapping)
		}
	}
}

// TestParetoSweepMatchesNaiveReference is the warm-start determinism
// property: across families, shapes and grid sizes, the trajectory-
// resumed sweep must return exactly the frontier of independent fresh
// runs, serial and parallel alike.
func TestParetoSweepMatchesNaiveReference(t *testing.T) {
	ctx := context.Background()
	for _, fam := range workload.Families() {
		for _, shape := range []struct{ n, p, points int }{
			{6, 4, 5}, {10, 8, 9}, {14, 12, 16},
		} {
			in := workload.Generate(workload.Config{
				Family: fam, Stages: shape.n, Processors: shape.p,
				Seed: 60000 + int64(shape.n),
			})
			ev := in.Evaluator()
			want := naiveSweep(ev, shape.points)
			got := ParetoSweep(ctx, ev, shape.points, 1)
			sameFront(t, fam.String()+"/serial", got, want)
			gotPar := ParetoSweep(ctx, ev, shape.points, 0)
			sameFront(t, fam.String()+"/parallel", gotPar, want)
		}
	}
}

// TestParetoSweepDegenerate pins the lo == hi grid (every bound equal)
// and the minimum grid size.
func TestParetoSweepDegenerate(t *testing.T) {
	// One processor: the single mapping is the whole frontier.
	ev := workload.Generate(workload.Config{Family: workload.E1, Stages: 4, Processors: 1, Seed: 1}).Evaluator()
	want := naiveSweep(ev, 2)
	got := ParetoSweep(context.Background(), ev, 0, 1) // points < 2 clamps to 2
	sameFront(t, "degenerate", got, want)
}

// TestParetoSweepCancelled: a dead context yields an empty (or truncated)
// frontier without panicking, matching the documented truncation
// semantics.
func TestParetoSweepCancelled(t *testing.T) {
	ev := workload.Generate(workload.Config{Family: workload.E2, Stages: 10, Processors: 8, Seed: 3}).Evaluator()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if front := ParetoSweep(ctx, ev, 8, 2); len(front) != 0 {
		t.Fatalf("pre-cancelled sweep returned %d points", len(front))
	}
}

// TestSweepersMatchFreshRuns drives the sweepers directly over monotone
// grids (including out-of-order probes, which must fall back to fresh
// solves) and demands bit-identical results and errors per bound.
func TestSweepersMatchFreshRuns(t *testing.T) {
	ev := workload.Generate(workload.Config{Family: workload.E2, Stages: 11, Processors: 9, Seed: 8}).Evaluator()
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	p0 := ev.Period(single)
	factors := []float64{1.1, 0.9, 0.6, 0.4, 0.25, 0.12, 0.05, 0.3} // last one out of order
	for _, h := range heuristics.PeriodHeuristics() {
		sw := heuristics.NewPeriodSweeper(ev, h)
		for _, f := range factors {
			bound := p0 * f
			got, gotErr := sw.Solve(bound)
			want, wantErr := h.MinimizeLatency(ev, bound)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s bound %g: err %v != fresh %v", h.ID(), bound, gotErr, wantErr)
			}
			if gotErr != nil {
				got, want = gotErr.(*heuristics.InfeasibleError).Best, wantErr.(*heuristics.InfeasibleError).Best
			}
			if math.Float64bits(got.Metrics.Period) != math.Float64bits(want.Metrics.Period) ||
				math.Float64bits(got.Metrics.Latency) != math.Float64bits(want.Metrics.Latency) ||
				got.Mapping.String() != want.Mapping.String() {
				t.Fatalf("%s bound %g: sweeper %+v %v != fresh %+v %v", h.ID(), bound, got.Metrics, got.Mapping, want.Metrics, want.Mapping)
			}
		}
		sw.Close()
	}
	optLat := ev.OptimalLatencyValue()
	budgets := []float64{0.9, 1.0, 1.05, 1.3, 1.8, 2.6, 1.2} // last one out of order
	for _, h := range heuristics.LatencyHeuristics() {
		sw := heuristics.NewLatencySweeper(ev, h)
		for _, f := range budgets {
			budget := optLat * f
			got, gotErr := sw.Solve(budget)
			want, wantErr := h.MinimizePeriod(ev, budget)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s budget %g: err %v != fresh %v", h.ID(), budget, gotErr, wantErr)
			}
			if gotErr != nil {
				got, want = gotErr.(*heuristics.InfeasibleError).Best, wantErr.(*heuristics.InfeasibleError).Best
			}
			if math.Float64bits(got.Metrics.Period) != math.Float64bits(want.Metrics.Period) ||
				math.Float64bits(got.Metrics.Latency) != math.Float64bits(want.Metrics.Latency) ||
				got.Mapping.String() != want.Mapping.String() {
				t.Fatalf("%s budget %g: sweeper %+v != fresh %+v", h.ID(), budget, got.Metrics, want.Metrics)
			}
		}
		sw.Close()
	}
}

// TestSweepSerialFallbackThreshold is the BENCH_8 regression guard: the
// 30×40 sweep bench instance (1200 cells) lost time when fanned out, so
// the sweep lane carries a serial-fallback threshold. The bench shape
// must fall under it, the paper-scale 40×100 sweep must not, and —
// threshold or no threshold — both modes must return the identical
// frontier.
func TestSweepSerialFallbackThreshold(t *testing.T) {
	bench := workload.Generate(workload.Config{Family: workload.E2, Stages: 30, Processors: 40, Seed: 53})
	if !sweepSerialFallback(bench.Evaluator()) {
		t.Errorf("30×40 bench instance (%d cells) must take the serial sweep lane", 30*40)
	}
	if runtime.GOMAXPROCS(0) > 1 {
		paper := workload.Generate(workload.Config{Family: workload.E2, Stages: 40, Processors: 100, Seed: 53})
		if sweepSerialFallback(paper.Evaluator()) {
			t.Errorf("40×100 paper-scale sweep (%d cells) must keep its fan-out", 40*100)
		}
	}
	ctx := context.Background()
	ev := bench.Evaluator()
	want := ParetoSweep(ctx, ev, 10, 1)
	got := ParetoSweep(ctx, ev, 10, 0)
	sameFront(t, "bench-shape serial-vs-parallel", got, want)
}
