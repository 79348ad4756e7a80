package heuristics

// Property tests driving the pooled engine against the frozen legacy
// oracle (legacy_oracle_test.go): on every workload family of the paper,
// every heuristic must return bit-identical intervals, metrics and
// InfeasibleError payloads. The suite runs under -race in CI, so the
// pooled scratch reuse is also exercised for aliasing bugs when the
// comparison fans out across goroutines.

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

// requireSameResult fails unless a and b are bitwise identical: metrics,
// interval structure and processor assignment.
func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if math.Float64bits(got.Metrics.Period) != math.Float64bits(want.Metrics.Period) ||
		math.Float64bits(got.Metrics.Latency) != math.Float64bits(want.Metrics.Latency) {
		t.Fatalf("%s: metrics %+v != oracle %+v", label, got.Metrics, want.Metrics)
	}
	if (got.Mapping == nil) != (want.Mapping == nil) {
		t.Fatalf("%s: mapping nil-ness differs (%v vs %v)", label, got.Mapping, want.Mapping)
	}
	if got.Mapping == nil {
		return
	}
	gi, wi := got.Mapping.Intervals(), want.Mapping.Intervals()
	if len(gi) != len(wi) {
		t.Fatalf("%s: %d intervals != oracle %d", label, len(gi), len(wi))
	}
	for j := range gi {
		if gi[j] != wi[j] {
			t.Fatalf("%s: interval %d: %v != oracle %v", label, j, gi[j], wi[j])
		}
	}
}

// requireSameError fails unless both errors are nil or carry identical
// InfeasibleError payloads (constraint, target, achieved, best result).
func requireSameError(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: err %v != oracle err %v", label, got, want)
	}
	if got == nil {
		return
	}
	var gi, wi *InfeasibleError
	if !errors.As(got, &gi) || !errors.As(want, &wi) {
		t.Fatalf("%s: non-InfeasibleError: %v vs %v", label, got, want)
	}
	if gi.Heuristic != wi.Heuristic || gi.Constraint != wi.Constraint ||
		math.Float64bits(gi.Target) != math.Float64bits(wi.Target) ||
		math.Float64bits(gi.Achieved) != math.Float64bits(wi.Achieved) {
		t.Fatalf("%s: payload %+v != oracle %+v", label, gi, wi)
	}
	requireSameResult(t, label+"/Best", gi.Best, wi.Best)
}

// oraclePeriodRuns pairs each period-constrained heuristic with its
// frozen counterpart.
func oraclePeriodRuns() []struct {
	id     string
	pooled func(*mapping.Evaluator, float64) (Result, error)
	legacy func(*mapping.Evaluator, float64) (Result, error)
} {
	return []struct {
		id     string
		pooled func(*mapping.Evaluator, float64) (Result, error)
		legacy func(*mapping.Evaluator, float64) (Result, error)
	}{
		{"H1", SpMonoP{}.MinimizeLatency, legacyH1},
		{"H2", ThreeExploMono{}.MinimizeLatency, legacyH2},
		{"H3", ThreeExploBi{}.MinimizeLatency, legacyH3},
		{"H4", SpBiP{}.MinimizeLatency, func(ev *mapping.Evaluator, b float64) (Result, error) { return legacyH4(ev, b, 0) }},
	}
}

// oracleLatencyRuns pairs each latency-constrained heuristic (including
// the X7/X8 extensions) with its frozen counterpart.
func oracleLatencyRuns() []struct {
	id     string
	pooled func(*mapping.Evaluator, float64) (Result, error)
	legacy func(*mapping.Evaluator, float64) (Result, error)
} {
	return []struct {
		id     string
		pooled func(*mapping.Evaluator, float64) (Result, error)
		legacy func(*mapping.Evaluator, float64) (Result, error)
	}{
		{"H5", SpMonoL{}.MinimizePeriod, legacyH5},
		{"H6", SpBiL{}.MinimizePeriod, legacyH6},
		{"X7", ThreeExploMonoL{}.MinimizePeriod, legacyX7},
		{"X8", ThreeExploBiL{}.MinimizePeriod, legacyX8},
	}
}

// comparePooledToLegacy exercises every heuristic on one instance across
// a spread of feasible and infeasible bounds.
func comparePooledToLegacy(t *testing.T, label string, ev *mapping.Evaluator) {
	t.Helper()
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	p0 := ev.Period(single)
	for _, factor := range []float64{0.05, 0.3, 0.55, 0.8, 1.01} {
		bound := p0 * factor
		for _, run := range oraclePeriodRuns() {
			got, gotErr := run.pooled(ev, bound)
			want, wantErr := run.legacy(ev, bound)
			lbl := label + "/" + run.id
			requireSameResult(t, lbl, got, want)
			requireSameError(t, lbl, gotErr, wantErr)
		}
	}
	optLat := ev.OptimalLatencyValue()
	for _, factor := range []float64{0.9, 1.0, 1.2, 1.7, 2.5} {
		budget := optLat * factor
		for _, run := range oracleLatencyRuns() {
			got, gotErr := run.pooled(ev, budget)
			want, wantErr := run.legacy(ev, budget)
			lbl := label + "/" + run.id
			requireSameResult(t, lbl, got, want)
			requireSameError(t, lbl, gotErr, wantErr)
		}
	}
}

// TestPooledEngineMatchesLegacyOracle drives every heuristic across the
// paper's four workload families and seeded sizes: the pooled engine and
// the frozen allocating engine must agree bit for bit everywhere. The
// n ∈ {20, 40} × p ∈ {10, 100} shapes are the service's bulk traffic,
// where trajectories are long, 3-way scans are wide and H4's replayed
// prefixes run many steps; one seed each keeps the oracle's cost down.
func TestPooledEngineMatchesLegacyOracle(t *testing.T) {
	shapes := []struct{ n, p, seeds int }{
		{6, 4, 3}, {10, 6, 3}, {12, 10, 3},
		{20, 10, 1}, {20, 100, 1}, {40, 10, 1}, {40, 100, 1},
	}
	for _, fam := range workload.Families() {
		for _, shape := range shapes {
			for seed := int64(0); seed < int64(shape.seeds); seed++ {
				in := workload.Generate(workload.Config{
					Family: fam, Stages: shape.n, Processors: shape.p,
					Seed: 42000 + seed,
				})
				label := fam.String()
				comparePooledToLegacy(t, label, in.Evaluator())
			}
		}
	}
}

// TestPooledEngineMatchesLegacyOracleRandom adds rough random instances
// (duplicate speeds, zero communications, single stages) beyond the
// calibrated families.
func TestPooledEngineMatchesLegacyOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 25; trial++ {
		ev := randEvaluator(r, 9, 7)
		comparePooledToLegacy(t, "rand", ev)
	}
}

// TestPooledEngineMatchesOracleConcurrently hammers one shared evaluator
// from many goroutines, each comparing pooled against legacy runs: under
// -race this proves concurrent solves never share scratch state, and that
// pooled reuse cannot leak one race's buffers into another's results.
func TestPooledEngineMatchesOracleConcurrently(t *testing.T) {
	in := workload.Generate(workload.Config{Family: workload.E2, Stages: 10, Processors: 8, Seed: 4242})
	ev := in.Evaluator()
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	p0 := ev.Period(single)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bound := p0 * (0.2 + 0.1*float64(w))
			for i := 0; i < 5; i++ {
				for _, run := range oraclePeriodRuns() {
					got, gotErr := run.pooled(ev, bound)
					want, wantErr := run.legacy(ev, bound)
					requireSameResult(t, "conc/"+run.id, got, want)
					requireSameError(t, "conc/"+run.id, gotErr, wantErr)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFullyHetMatchesLegacyOracle compares the scratch-based fully
// heterogeneous splitter against its frozen mapping-per-trial original on
// random link matrices.
func TestFullyHetMatchesLegacyOracle(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(8)
		p := 2 + r.Intn(6)
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
			speeds[i] = float64(1 + r.Intn(10))
		}
		links := make([][]float64, p)
		for u := range links {
			links[u] = make([]float64, p)
		}
		for u := 0; u < p; u++ {
			for v := u + 1; v < p; v++ {
				b := float64(1 + r.Intn(10))
				links[u][v], links[v][u] = b, b
			}
		}
		plat, err := platform.NewFullyHeterogeneous(speeds, links)
		if err != nil {
			t.Fatal(err)
		}
		ev := mapping.NewEvaluator(pipeline.MustNew(works, deltas), plat)
		single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
		p0 := ev.Period(single)
		for _, factor := range []float64{0, 0.4, 0.7, 1.01} {
			bound := p0 * factor
			got, gotErr := SplitFullyHet(ev, bound)
			want, wantErr := legacySplitFullyHet(ev, bound)
			requireSameResult(t, "fullhet", got, want)
			requireSameError(t, "fullhet", gotErr, wantErr)
		}
		// The comm-homogeneous degenerate case must agree too.
		hom := mapping.NewEvaluator(pipeline.MustNew(works, deltas), platform.MustNew(speeds, 10))
		got, gotErr := SplitFullyHet(hom, p0*0.5)
		want, wantErr := legacySplitFullyHet(hom, p0*0.5)
		requireSameResult(t, "fullhet/hom", got, want)
		requireSameError(t, "fullhet/hom", gotErr, wantErr)
	}
}
