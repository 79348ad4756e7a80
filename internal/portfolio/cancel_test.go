package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/workload"
)

// TestRaceModesBitIdentical is the cancellation soundness property: the
// race and the reference oracle, which runs every member to completion,
// must select the identical winner — same solver, same metrics bits, same
// intervals — on randomized instances, across objectives and bound
// tightness. Cancellation may only abort members that were going to lose
// anyway, so the selected outcome can never depend on it. closest is
// compared only on full failure: when any member meets the bound,
// near-miss reporting from cancelled members is documented as
// unspecified.
func TestRaceModesBitIdentical(t *testing.T) {
	ctx := context.Background()
	opts := SolveOptions{Exact: true}
	check := func(label string, ref, got Outcome, refFound, found bool, refClosest, closest error) {
		if found != refFound {
			t.Fatalf("%s: found %v != reference %v", label, found, refFound)
		}
		if !found {
			if (closest == nil) != (refClosest == nil) ||
				(closest != nil && closest.Error() != refClosest.Error()) {
				t.Fatalf("%s: closest %v != reference %v", label, closest, refClosest)
			}
			return
		}
		if got.Solver != ref.Solver ||
			math.Float64bits(got.Result.Metrics.Period) != math.Float64bits(ref.Result.Metrics.Period) ||
			math.Float64bits(got.Result.Metrics.Latency) != math.Float64bits(ref.Result.Metrics.Latency) ||
			!sameResult(got.Result, ref.Result) {
			t.Fatalf("%s: outcome (%q %+v) != reference (%q %+v)",
				label, got.Solver, got.Result.Metrics, ref.Solver, ref.Result.Metrics)
		}
	}
	checkPeriod := func(label string, ev *mapping.Evaluator, bound float64) {
		ref, refFound, refClosest := referenceUnderPeriod(ev, bound, opts)
		got, found, closest := UnderPeriod(ctx, ev, bound, opts)
		check(label, ref, got, refFound, found, refClosest, closest)
	}
	checkLatency := func(label string, ev *mapping.Evaluator, budget float64) {
		ref, refFound, refClosest := referenceUnderLatency(ev, budget, opts)
		got, found, closest := UnderLatency(ctx, ev, budget, opts)
		check(label, ref, got, refFound, found, refClosest, closest)
	}
	// 30×9 keeps the DP's compressed state space small enough that the
	// full bound × seed matrix stays fast.
	for seed := int64(0); seed < 8; seed++ {
		in := workload.Generate(workload.Config{
			Family: workload.E2, Stages: 30, Processors: 9, Seed: 7000 + seed,
		})
		ev := in.Evaluator()
		lb := lowerbound.Period(ev)
		for _, factor := range []float64{0.9, 1.05, 1.3, 2.0} {
			bound := lb * factor
			checkPeriod(fmt.Sprintf("seed %d period×%g", seed, factor), ev, bound)
		}
		optLat := ev.OptimalLatencyValue()
		for _, factor := range []float64{0.9, 1.1, 1.6} {
			budget := optLat * factor
			checkLatency(fmt.Sprintf("seed %d latency×%g", seed, factor), ev, budget)
		}
	}
	// The bulk benchmark's races: p=100 platforms of every family, n=20
	// and n=40, where no DP races and H1–H6 run their longest
	// trajectories. Period-constrained at 1.05× and 1.3× H1's failure
	// threshold, latency-constrained at 1.25×, 1.5× and 2× the optimal
	// latency: the bounds its batches resolve to.
	for fi, fam := range workload.Families() {
		for _, n := range []int{20, 40} {
			ev := workload.Generate(workload.Config{
				Family: fam, Stages: n, Processors: 100, Seed: int64(7300 + 10*fi + n),
			}).Evaluator()
			thr, err := heuristics.MinAchievablePeriod(ev, heuristics.SpMonoP{})
			if err != nil {
				t.Fatal(err)
			}
			for _, factor := range []float64{1.05, 1.3} {
				bound := thr * factor
				checkPeriod(fmt.Sprintf("%v n=%d p=100 period×%g of H1's threshold", fam, n, factor), ev, bound)
			}
			for _, factor := range []float64{1.25, 1.5, 2} {
				budget := ev.OptimalLatencyValue() * factor
				checkLatency(fmt.Sprintf("%v n=%d p=100 latency×%g", fam, n, factor), ev, budget)
			}
		}
	}
	// The cold benchmark's races: p=10 platforms of every family, n=5 and
	// n=40. Latency-constrained at 1.2/1.5/1.8× the optimal latency: at
	// n=5 H5 often ties the optimum, so the raced DP must abandon its
	// bisection below the incumbent. Period-constrained at 20/50/80% of
	// the way from the period lower bound to the single-processor period,
	// on four draws per family and size: the raced DP abandons when H1's
	// latency undercuts its optimum. In practice H1 has found an optimal
	// mapping and its running sum puts the latency an ulp below the
	// evaluator's sum, which the DP reproduces (about 4% of these races).
	// For each objective the matrix must hold both a race the DP abandons
	// and one it wins, or the abandon path is not under test.
	type tally struct{ abandoned, won int }
	var latency, period tally
	count := func(c *tally, attempts []attempt, pick func([]attempt) (Outcome, bool, error)) {
		if errors.Is(attempts[len(attempts)-1].err, heuristics.ErrRaceLost) {
			c.abandoned++
		}
		if out, _, _ := pick(attempts); out.Solver == ExactID {
			c.won++
		}
	}
	for fi, fam := range workload.Families() {
		for _, n := range []int{5, 40} {
			ev := workload.Generate(workload.Config{
				Family: fam, Stages: n, Processors: 10, Seed: int64(7100 + 10*fi + n),
			}).Evaluator()
			for _, factor := range []float64{1.2, 1.5, 1.8} {
				budget := ev.OptimalLatencyValue() * factor
				checkLatency(fmt.Sprintf("%v n=%d latency×%g", fam, n, factor), ev, budget)
				solvers, hasExact := latencyMembers(ev, budget, SolveOptions{Exact: true})
				if !hasExact {
					t.Fatalf("%v n=%d: the DP does not race", fam, n)
				}
				count(&latency, race(solvers, hasExact, periodMetric), pickUnderLatency)
			}
			for draw := 0; draw < 4; draw++ {
				ev := workload.Generate(workload.Config{
					Family: fam, Stages: n, Processors: 10, Seed: int64(7100 + 10*fi + n + 1000*draw),
				}).Evaluator()
				single, _ := ev.OptimalLatency()
				lb, top := lowerbound.Period(ev), ev.Period(single)
				for _, f := range []float64{0.2, 0.5, 0.8} {
					bound := lb + f*(top-lb)
					checkPeriod(fmt.Sprintf("%v n=%d draw %d period %g of range", fam, n, draw, f), ev, bound)
					solvers, hasExact := periodMembers(ev, bound, SolveOptions{Exact: true})
					count(&period, race(solvers, hasExact, latencyMetric), pickUnderPeriod)
				}
			}
		}
	}
	t.Logf("latency DP abandoned %d races, won %d; period DP abandoned %d, won %d",
		latency.abandoned, latency.won, period.abandoned, period.won)
	if latency.abandoned == 0 || latency.won == 0 || period.abandoned == 0 || period.won == 0 {
		t.Fatalf("latency DP abandoned %d races and won %d, period DP abandoned %d and won %d; the matrix must hold both for each",
			latency.abandoned, latency.won, period.abandoned, period.won)
	}
}
