package lowerbound

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipesched/internal/chains"
	"pipesched/internal/exact"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

// Validity: the bound never exceeds the exact minimum period.
func TestPeriodBoundIsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(7)
		p := 1 + r.Intn(4)
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
			speeds[i] = float64(1 + r.Intn(20))
		}
		ev := mapping.NewEvaluator(pipeline.MustNew(works, deltas), platform.MustNew(speeds, 10))
		opt, err := exact.MinPeriod(ev)
		if err != nil {
			return false
		}
		return Period(ev) <= opt.Metrics.Period*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Tightness on degenerate instances where the exact optimum is known.
func TestPeriodBoundTightCases(t *testing.T) {
	// Uniform work, equal speeds, zero comms: bound = exact = W/(p·s)
	// when n is a multiple of p.
	app := pipeline.MustNew([]float64{6, 6, 6, 6}, make([]float64, 5))
	plat := platform.MustNew([]float64{3, 3}, 10)
	ev := mapping.NewEvaluator(app, plat)
	opt, err := exact.MinPeriod(ev)
	if err != nil {
		t.Fatal(err)
	}
	lb := Period(ev)
	if math.Abs(lb-opt.Metrics.Period) > 1e-9 {
		t.Errorf("lb = %g, exact = %g (should be tight here)", lb, opt.Metrics.Period)
	}
	// Single processor: bound must include the full cycle's comm terms
	// δ_0/b + W/s + δ_n/b? The bound only guarantees δ_0/b + w_1/s +
	// min δ/b — check it is still within the exact value.
	app2 := pipeline.MustNew([]float64{8}, []float64{20, 30})
	plat2 := platform.MustNew([]float64{4}, 10)
	ev2 := mapping.NewEvaluator(app2, plat2)
	opt2, err := exact.MinPeriod(ev2)
	if err != nil {
		t.Fatal(err)
	}
	lb2 := Period(ev2)
	// One stage, one processor: first-interval bound is exact:
	// 2 + 2 + 3 = 7.
	if math.Abs(lb2-opt2.Metrics.Period) > 1e-9 {
		t.Errorf("single-stage lb = %g, exact = %g", lb2, opt2.Metrics.Period)
	}
}

// Each constituent bound must be respected: construct instances where a
// specific bound dominates.
func TestPeriodBoundComponents(t *testing.T) {
	// Heavy single stage dominates: w = {1, 100, 1}, fast procs.
	app := pipeline.MustNew([]float64{1, 100, 1}, make([]float64, 4))
	plat := platform.MustNew([]float64{10, 10, 10}, 10)
	ev := mapping.NewEvaluator(app, plat)
	if lb := Period(ev); lb < 10-1e-9 { // 100/10
		t.Errorf("heavy-stage bound: %g, want ≥ 10", lb)
	}
	// Communication-in dominates: huge δ_0.
	app2 := pipeline.MustNew([]float64{1}, []float64{1000, 0})
	plat2 := platform.MustNew([]float64{20}, 10)
	ev2 := mapping.NewEvaluator(app2, plat2)
	if lb := Period(ev2); lb < 100-1e-9 { // 1000/10
		t.Errorf("comm bound: %g, want ≥ 100", lb)
	}
	// Total-work bound dominates: many equal stages, many equal procs.
	app3, err := pipeline.Uniform(12, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	plat3 := platform.MustNew([]float64{2, 2, 2, 2}, 10)
	ev3 := mapping.NewEvaluator(app3, plat3)
	if lb := Period(ev3); lb < 60.0/8.0-1e-9 {
		t.Errorf("work bound: %g, want ≥ 7.5", lb)
	}
}

func TestLatencyBoundIsExactOptimum(t *testing.T) {
	in := workload.Generate(workload.Config{Family: workload.E2, Stages: 10, Processors: 5, Seed: 4})
	ev := in.Evaluator()
	_, opt := ev.OptimalLatency()
	if got := Latency(ev); got != opt {
		t.Errorf("Latency bound = %g, want %g", got, opt)
	}
}

// On paper-sized workloads the bound must stay positive and below the
// single-processor period (which is an upper bound on the optimum).
func TestPeriodBoundOnPaperWorkloads(t *testing.T) {
	for _, fam := range workload.Families() {
		for seed := int64(0); seed < 10; seed++ {
			in := workload.Generate(workload.Config{Family: fam, Stages: 20, Processors: 10, Seed: seed})
			ev := in.Evaluator()
			lb := Period(ev)
			if lb <= 0 {
				t.Fatalf("%s: non-positive bound", fam)
			}
			single := mapping.SingleProcessor(in.App, in.Plat, in.Plat.Fastest())
			if ub := ev.Period(single); lb > ub*(1+1e-9) {
				t.Fatalf("%s seed %d: bound %g exceeds single-proc period %g", fam, seed, lb, ub)
			}
		}
	}
}

func TestPeriodBoundHeterogeneousFallback(t *testing.T) {
	plat, err := platform.NewFullyHeterogeneous([]float64{2, 4}, [][]float64{{0, 8}, {8, 0}})
	if err != nil {
		t.Fatal(err)
	}
	app := pipeline.MustNew([]float64{6, 6}, []float64{1, 1, 1})
	ev := mapping.NewEvaluator(app, plat)
	lb := Period(ev)
	// Compute-only: max(12/6, 6/4, chains{6,6}/4 = 6/4) = 2.
	if math.Abs(lb-2) > 1e-9 {
		t.Errorf("heterogeneous fallback bound = %g, want 2", lb)
	}
}

// The chains term must be chains.HomogeneousDP's optimum bit for bit:
// Period anchors relative batch bounds and sweep grids, so a one-ulp
// drift would change answers. Paper shapes, plus rough random works.
func TestChainsBottleneckMatchesDP(t *testing.T) {
	check := func(app *pipeline.Pipeline, p int) {
		t.Helper()
		dp, err := chains.HomogeneousDP(app.Works(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := chainsBottleneck(app, p); math.Float64bits(got) != math.Float64bits(dp.Bottleneck) {
			t.Fatalf("works %v, p %d: chains bound %v, HomogeneousDP %v", app.Works(), p, got, dp.Bottleneck)
		}
	}
	for _, fam := range workload.Families() {
		for _, n := range workload.PaperStages() {
			for _, p := range workload.PaperProcessors() {
				for seed := int64(0); seed < 10; seed++ {
					check(workload.Generate(workload.Config{Family: fam, Stages: n, Processors: p, Seed: 7300 + seed}).App, p)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(7373))
	for trial := 0; trial < 80; trial++ {
		n := 1 + r.Intn(70) // past the 64-stage stack buffer too
		works := make([]float64, n)
		for i := range works {
			works[i] = r.Float64() * math.Pow(10, float64(r.Intn(13)-6))
		}
		app := pipeline.MustNew(works, make([]float64, n+1))
		for _, p := range []int{1, 2, 1 + n/2, n, n + 1} {
			check(app, p)
		}
	}
}

// Period allocates nothing on the paper's shapes: the batch and sweep
// paths call it once per instance.
func TestPeriodAllocs(t *testing.T) {
	for _, p := range workload.PaperProcessors() {
		ev := workload.Generate(workload.Config{Family: workload.E3, Stages: 40, Processors: p, Seed: 1}).Evaluator()
		if allocs := testing.AllocsPerRun(100, func() { Period(ev) }); allocs != 0 {
			t.Errorf("p=%d: Period allocates %v times per call, want 0", p, allocs)
		}
	}
}
