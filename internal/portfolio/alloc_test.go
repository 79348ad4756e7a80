package portfolio

// Allocation-regression caps for the orchestration layer: a portfolio
// race (heuristics + exact DP) and a warm sweep grid point.
// The engines underneath are pooled and allocation-free in steady state,
// so the race budget is dominated by the portfolio's own closures,
// attempt slots and the winners' materialised mappings. ISSUE 4's
// acceptance bar is ≤ 50 allocs per race; the caps pin that down.

import (
	"context"
	"testing"

	"pipesched/internal/lowerbound"
	"pipesched/internal/workload"
)

func TestPortfolioRaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops entries)")
	}
	ev := workload.Generate(workload.Config{Family: workload.E2, Stages: 14, Processors: 10, Seed: 47}).Evaluator()
	bound := lowerbound.Period(ev) * 1.5
	ctx := context.Background()
	run := func() {
		if _, found, _ := UnderPeriod(ctx, ev, bound, SolveOptions{Exact: true}); !found {
			t.Fatal("infeasible bound")
		}
	}
	run() // warm the pools
	if got := testing.AllocsPerRun(50, run); got > 50 {
		t.Errorf("portfolio race: %.1f allocs/run, cap 50", got)
	}
}

func TestSweepPointAllocsEndToEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops entries)")
	}
	ev := workload.Generate(workload.Config{Family: workload.E2, Stages: 16, Processors: 12, Seed: 9}).Evaluator()
	const points = 12
	run := func() {
		if front := ParetoSweep(context.Background(), ev, points, 1); len(front) == 0 {
			t.Fatal("empty frontier")
		}
	}
	run()
	perSweep := testing.AllocsPerRun(30, run)
	// 6 lanes × (sweeper + row + materialised results) plus the frontier
	// filter: budget ~25 allocations per grid point end to end, versus
	// several hundred for the pre-pooling sweep.
	if cap := float64(25 * points); perSweep > cap {
		t.Errorf("ParetoSweep(%d points): %.1f allocs/run, cap %g", points, perSweep, cap)
	}
}
