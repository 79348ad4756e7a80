package portfolio

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

// smallInstances draws seeded instances of every family, small enough for
// the exact DP (≤ 8 processors).
func smallInstances(t testing.TB, perFamily int) []workload.Instance {
	t.Helper()
	var out []workload.Instance
	for fi, fam := range workload.Families() {
		out = append(out, workload.GenerateSet(fam, 6, 5, perFamily, int64(5000+100*fi))...)
		out = append(out, workload.GenerateSet(fam, 8, 8, perFamily, int64(9000+100*fi))...)
	}
	return out
}

// sameResult compares two heuristic results bit for bit.
func sameResult(a, b heuristics.Result) bool {
	if math.Float64bits(a.Metrics.Period) != math.Float64bits(b.Metrics.Period) ||
		math.Float64bits(a.Metrics.Latency) != math.Float64bits(b.Metrics.Latency) {
		return false
	}
	switch {
	case a.Mapping == nil && b.Mapping == nil:
		return true
	case a.Mapping == nil || b.Mapping == nil:
		return false
	}
	return a.Mapping.String() == b.Mapping.String()
}

// TestParallelMatchesSerial is the determinism property: for every small
// instance and a spread of bounds, the portfolio race returns exactly —
// bitwise — what the reference oracle returns: same winning solver, same
// metrics, same mapping, same failure.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, withExact := range []bool{false, true} {
		for ii, in := range smallInstances(t, 3) {
			ev := in.Evaluator()
			lb := exactMinPeriod(t, ev)
			for _, factor := range []float64{0.5, 1.0, 1.5, 3.0} {
				bound := lb * factor
				sOut, sFound, sErr := referenceUnderPeriod(ev, bound, SolveOptions{Exact: withExact})
				pOut, pFound, pErr := UnderPeriod(ctx, ev, bound, SolveOptions{Exact: withExact})
				if sFound != pFound || sOut.Solver != pOut.Solver || !sameResult(sOut.Result, pOut.Result) {
					t.Fatalf("instance %d bound %g exact=%v: reference (%v, %q, %+v) != race (%v, %q, %+v)",
						ii, bound, withExact, sFound, sOut.Solver, sOut.Result.Metrics, pFound, pOut.Solver, pOut.Result.Metrics)
				}
				// closest is only specified when no member met the bound
				// (the race abandons losing members before they can
				// report a near-miss).
				if !sFound && ((sErr == nil) != (pErr == nil) || (sErr != nil && sErr.Error() != pErr.Error())) {
					t.Fatalf("instance %d bound %g: reference err %v != race err %v", ii, bound, sErr, pErr)
				}
			}
			_, optLat := ev.OptimalLatency()
			for _, factor := range []float64{0.9, 1.0, 1.4, 2.5} {
				bound := optLat * factor
				sOut, sFound, sErr := referenceUnderLatency(ev, bound, SolveOptions{Exact: withExact})
				pOut, pFound, pErr := UnderLatency(ctx, ev, bound, SolveOptions{Exact: withExact})
				if sFound != pFound || sOut.Solver != pOut.Solver || !sameResult(sOut.Result, pOut.Result) {
					t.Fatalf("instance %d latency bound %g exact=%v: reference != race", ii, bound, withExact)
				}
				if !sFound && ((sErr == nil) != (pErr == nil) || (sErr != nil && sErr.Error() != pErr.Error())) {
					t.Fatalf("instance %d latency bound %g: reference err %v != race err %v", ii, bound, sErr, pErr)
				}
			}
		}
	}
}

func exactMinPeriod(t testing.TB, ev *mapping.Evaluator) float64 {
	t.Helper()
	opt, err := exact.MinPeriod(ev)
	if err != nil {
		t.Fatal(err)
	}
	return opt.Metrics.Period
}

// TestHeuristicsNeverBeatExact cross-checks every heuristic against the
// exact reference solvers on seeded small instances: no feasible heuristic
// result may be strictly better than the optimum, and the portfolio with
// the DP enabled must achieve exactly the optimum whenever the bound is
// feasible.
func TestHeuristicsNeverBeatExact(t *testing.T) {
	const tol = 1e-9
	ctx := context.Background()
	for ii, in := range smallInstances(t, 3) {
		ev := in.Evaluator()
		lb := exactMinPeriod(t, ev)
		for _, factor := range []float64{1.0, 1.3, 2.0} {
			bound := lb * factor
			opt, err := exact.MinLatencyUnderPeriod(ev, bound)
			if err != nil {
				t.Fatalf("instance %d: exact infeasible at %g × its own optimum", ii, factor)
			}
			for _, h := range heuristics.PeriodHeuristics() {
				res, err := h.MinimizeLatency(ev, bound)
				if err != nil {
					continue // infeasible for the heuristic: fine
				}
				if res.Metrics.Latency < opt.Metrics.Latency*(1-tol) {
					t.Errorf("instance %d: %s beat the exact DP under period %g: %g < %g",
						ii, h.ID(), bound, res.Metrics.Latency, opt.Metrics.Latency)
				}
			}
			out, found, _ := UnderPeriod(ctx, ev, bound, SolveOptions{Exact: true})
			if !found {
				t.Fatalf("instance %d: portfolio failed on a bound the DP satisfies", ii)
			}
			if math.Abs(out.Result.Metrics.Latency-opt.Metrics.Latency) > tol*opt.Metrics.Latency {
				t.Errorf("instance %d: portfolio latency %g != exact %g",
					ii, out.Result.Metrics.Latency, opt.Metrics.Latency)
			}
		}
		_, optLat := ev.OptimalLatency()
		for _, factor := range []float64{1.0, 1.5, 2.5} {
			bound := optLat * factor
			opt, err := exact.MinPeriodUnderLatency(ev, bound)
			if err != nil {
				t.Fatalf("instance %d: exact infeasible at latency %g ≥ optimum", ii, bound)
			}
			for _, h := range heuristics.LatencyHeuristics() {
				res, err := h.MinimizePeriod(ev, bound)
				if err != nil {
					continue
				}
				if res.Metrics.Period < opt.Metrics.Period*(1-tol) {
					t.Errorf("instance %d: %s beat the exact DP under latency %g: %g < %g",
						ii, h.ID(), bound, res.Metrics.Period, opt.Metrics.Period)
				}
			}
		}
	}
}

// TestSolveBatchMatchesSerialReference runs a ≥ 64-instance batch through
// the concurrent pool and through a plain serial loop and demands
// bit-identical reports: per-instance bounds, winners, metrics, errors and
// the aggregated frontier.
func TestSolveBatchMatchesSerialReference(t *testing.T) {
	instances := workload.GenerateSet(workload.E2, 10, 8, 64, 4242)
	instances = append(instances, workload.GenerateSet(workload.E3, 8, 6, 16, 777)...)
	for _, objective := range []Objective{MinimizeLatency, MinimizePeriod} {
		opts := BatchOptions{
			Objective:     objective,
			Bound:         1.4,
			RelativeBound: true,
			Exact:         true,
		}
		serialOpts := opts
		serialOpts.Workers = 1
		ref, err := SolveBatch(context.Background(), instances, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveBatch(context.Background(), instances, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Solved != ref.Solved || got.Failed != ref.Failed {
			t.Fatalf("%v: parallel solved/failed %d/%d, serial %d/%d",
				objective, got.Solved, got.Failed, ref.Solved, ref.Failed)
		}
		for i := range ref.Results {
			r, g := ref.Results[i], got.Results[i]
			if g.Index != r.Index || math.Float64bits(g.Bound) != math.Float64bits(r.Bound) {
				t.Fatalf("%v instance %d: bound %g != %g", objective, i, g.Bound, r.Bound)
			}
			if (g.Err == nil) != (r.Err == nil) {
				t.Fatalf("%v instance %d: err %v != %v", objective, i, g.Err, r.Err)
			}
			if r.Err == nil && (g.Outcome.Solver != r.Outcome.Solver || !sameResult(g.Outcome.Result, r.Outcome.Result)) {
				t.Fatalf("%v instance %d: outcome (%q %+v) != (%q %+v)", objective, i,
					g.Outcome.Solver, g.Outcome.Result.Metrics, r.Outcome.Solver, r.Outcome.Result.Metrics)
			}
		}
		if len(got.Front) != len(ref.Front) {
			t.Fatalf("%v: front sizes %d != %d", objective, len(got.Front), len(ref.Front))
		}
		for i := range ref.Front {
			if got.Front[i] != ref.Front[i] {
				t.Fatalf("%v: front[%d] %+v != %+v", objective, i, got.Front[i], ref.Front[i])
			}
		}
	}
}

// TestSolveBatchSharedEvaluator hammers one shared pipeline/platform pair
// from every batch worker at once — the -race exercise for the read-only
// contract of Evaluator, Pipeline and Platform.
func TestSolveBatchSharedEvaluator(t *testing.T) {
	base := workload.Generate(workload.Config{Family: workload.E2, Stages: 12, Processors: 10, Seed: 99})
	shared := make([]workload.Instance, 128)
	for i := range shared {
		shared[i] = base // same *Pipeline and *Platform in every element
	}
	report, err := SolveBatch(context.Background(), shared, BatchOptions{
		Bound:         1.5,
		RelativeBound: true,
		Workers:       4 * runtime.GOMAXPROCS(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Solved != len(shared) {
		t.Fatalf("solved %d of %d identical instances", report.Solved, len(shared))
	}
	first := report.Results[0].Outcome
	for i, r := range report.Results {
		if r.Outcome.Solver != first.Solver || !sameResult(r.Outcome.Result, first.Result) {
			t.Fatalf("instance %d diverged from instance 0 on identical input", i)
		}
	}
}

// TestConcurrentRacesOnOneEvaluator runs many overlapping portfolio races
// against one evaluator; under -race this flags any hidden mutation.
func TestConcurrentRacesOnOneEvaluator(t *testing.T) {
	in := workload.Generate(workload.Config{Family: workload.E1, Stages: 10, Processors: 8, Seed: 7})
	ev := in.Evaluator()
	lb := exactMinPeriod(t, ev)
	bounds := make([]float64, 64)
	for i := range bounds {
		bounds[i] = lb * (1 + float64(i%8)/4)
	}
	outs, err := Map(context.Background(), 4*runtime.GOMAXPROCS(0), bounds, func(ctx context.Context, bound float64) string {
		out, found, _ := UnderPeriod(ctx, ev, bound, SolveOptions{Exact: true})
		if !found {
			return ""
		}
		return out.Solver + out.Result.Mapping.String()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o != outs[i%8] { // same bound → same outcome
			t.Fatalf("bound %d: %q != %q", i, o, outs[i%8])
		}
	}
}

// TestSolveBatchCancellation proves prompt cancellation: a batch that
// would run far longer than the grace period returns almost immediately
// once the context is cancelled, with every unstarted instance carrying
// the cancellation error.
func TestSolveBatchCancellation(t *testing.T) {
	// Big enough that a full run takes many seconds on any machine.
	instances := workload.GenerateSet(workload.E2, 30, 60, 2048, 1234)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan BatchReport, 1)
	start := time.Now()
	go func() {
		report, _ := SolveBatch(ctx, instances, BatchOptions{Bound: 1.2, RelativeBound: true, Workers: 2})
		done <- report
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	var report BatchReport
	select {
	case report = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SolveBatch did not return within 30s of cancellation")
	}
	elapsed := time.Since(start)
	if elapsed > 15*time.Second {
		t.Fatalf("SolveBatch took %v to honour cancellation", elapsed)
	}
	if len(report.Results) != len(instances) {
		t.Fatalf("report has %d results for %d instances", len(report.Results), len(instances))
	}
	cancelled := 0
	for _, r := range report.Results {
		if r.Err != nil && errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no instance recorded the cancellation — batch finished before cancel?")
	}
	if report.Failed < cancelled {
		t.Fatalf("Failed %d < cancelled %d", report.Failed, cancelled)
	}
}

// TestSolveBatchPreCancelled: a context dead on arrival yields a complete,
// fully failed report without starting work.
func TestSolveBatchPreCancelled(t *testing.T) {
	instances := workload.GenerateSet(workload.E1, 5, 5, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := SolveBatch(ctx, instances, BatchOptions{Bound: 100})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if report.Solved != 0 || report.Failed != len(instances) {
		t.Fatalf("solved %d failed %d", report.Solved, report.Failed)
	}
	for _, r := range report.Results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("instance %d: err = %v", r.Index, r.Err)
		}
	}
}

// TestMapOrderAndWorkerClamp pins the pool's contract: input order is
// preserved, worker counts are clamped sanely, empty input is fine.
func TestMapOrderAndWorkerClamp(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{-1, 0, 1, 7, 1000} {
		out, err := Map(context.Background(), workers, in, func(_ context.Context, x int) int { return x * x })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	out, err := Map(context.Background(), 4, nil, func(_ context.Context, x int) int { return x })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v %v", out, err)
	}
}

// TestMapIndexed pins the index-passing variant used by SolveBatch.
func TestMapIndexed(t *testing.T) {
	in := []string{"a", "b", "c", "d"}
	out, err := MapIndexed(context.Background(), 2, in, func(_ context.Context, i int, s string) string {
		return s + string(rune('0'+i))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b1", "c2", "d3"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

// dupSpeedInstance builds an instance whose platform repeats few speeds
// over many processors — eligible for the exact DP under the class-keyed
// gate even though its processor count exceeds the legacy 14-proc limit.
func dupSpeedInstance(n, p, classes int, seed int64) workload.Instance {
	r := rand.New(rand.NewSource(seed))
	works := make([]float64, n)
	for i := range works {
		works[i] = float64(1 + r.Intn(20))
	}
	deltas := make([]float64, n+1)
	for i := range deltas {
		deltas[i] = float64(r.Intn(30))
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = float64(1 + r.Intn(classes))
	}
	return workload.Instance{
		App:  pipeline.MustNew(works, deltas),
		Plat: platform.MustNew(speeds, 10),
	}
}

// TestRaisedExactGateKeepsDeterminism is the regression guard for the
// class-keyed exact-eligibility rule: on platforms the old processor-count
// gate rejected (p > 14, few classes), the DP now joins the race — and the
// portfolio must still return bitwise what the reference oracle returns,
// with the DP's optimum winning whenever the bound admits it.
func TestRaisedExactGateKeepsDeterminism(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		in := dupSpeedInstance(7, 18, 3, 7000+seed)
		if !exact.Eligible(in.Plat) {
			t.Fatalf("seed %d: expected an Eligible few-class platform", seed)
		}
		ev := in.Evaluator()
		opt := exactMinPeriod(t, ev)
		for _, factor := range []float64{1.0, 1.3, 2.0} {
			bound := opt * factor
			sOut, sFound, sErr := referenceUnderPeriod(ev, bound, SolveOptions{Exact: true})
			pOut, pFound, pErr := UnderPeriod(ctx, ev, bound, SolveOptions{Exact: true})
			if sFound != pFound || sOut.Solver != pOut.Solver || !sameResult(sOut.Result, pOut.Result) {
				t.Fatalf("seed %d bound %g: reference (%v, %q) != race (%v, %q)",
					seed, bound, sFound, sOut.Solver, pFound, pOut.Solver)
			}
			if (sErr == nil) != (pErr == nil) || (sErr != nil && sErr.Error() != pErr.Error()) {
				t.Fatalf("seed %d bound %g: reference err %v != race err %v", seed, bound, sErr, pErr)
			}
			if !sFound {
				t.Fatalf("seed %d: bound %g ≥ the DP optimum must be feasible", seed, bound)
			}
			// The DP races, so no winner can miss the exact optimum
			// latency under this bound.
			xr, err := exact.MinLatencyUnderPeriod(ev, bound)
			if err != nil {
				t.Fatal(err)
			}
			if sOut.Result.Metrics.Latency > xr.Metrics.Latency {
				t.Fatalf("seed %d bound %g: winner %q latency %v worse than DP %v",
					seed, bound, sOut.Solver, sOut.Result.Metrics.Latency, xr.Metrics.Latency)
			}
		}
		// At the exact optimum period the heuristics typically miss the
		// bound; the race must then be won by the DP itself, proving it
		// participates on these previously rejected platforms.
		tight, found, _ := referenceUnderPeriod(ev, opt, SolveOptions{Exact: true})
		if !found {
			t.Fatalf("seed %d: DP-feasible bound reported infeasible", seed)
		}
		if tight.Result.Metrics.Period > opt*(1+1e-12) {
			t.Fatalf("seed %d: winner %q period %v exceeds optimum %v", seed, tight.Solver, tight.Result.Metrics.Period, opt)
		}
	}
}

// TestExactGateSitsOutIneligiblePlatforms pins the other side of the gate:
// many distinct speeds keep the DP out of the race, and the portfolio
// still matches the reference oracle.
func TestExactGateSitsOutIneligiblePlatforms(t *testing.T) {
	speeds := make([]float64, 17)
	for i := range speeds {
		speeds[i] = float64(i + 1) // 2^17 states: not Eligible
	}
	in := workload.Instance{
		App:  pipeline.MustNew([]float64{5, 9, 2, 7}, []float64{1, 2, 3, 4, 5}),
		Plat: platform.MustNew(speeds, 10),
	}
	if exact.Eligible(in.Plat) {
		t.Fatal("17 distinct speeds must not be Eligible")
	}
	ev := in.Evaluator()
	ctx := context.Background()
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	bound := ev.Period(single)
	sOut, sFound, _ := referenceUnderPeriod(ev, bound, SolveOptions{Exact: true})
	pOut, pFound, _ := UnderPeriod(ctx, ev, bound, SolveOptions{Exact: true})
	if sFound != pFound || sOut.Solver != pOut.Solver || !sameResult(sOut.Result, pOut.Result) {
		t.Fatal("race != reference on an ineligible platform")
	}
	if sFound && sOut.Solver == ExactID {
		t.Fatal("the DP must sit out races on ineligible platforms")
	}
}
