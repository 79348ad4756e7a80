package heuristics

// H4's trial memo (SpBiP.MinimizeLatencyRaced) must be invisible in
// results and must keep engaging: the memoised bisection returns what the
// frozen legacy bisection (legacy_oracle_test.go), which runs every trial
// from scratch, returns bit for bit, and a fixed paper instance pins how
// few trials actually run — a memo that never hits would pass the
// differential test too.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pipesched/internal/mapping"
	"pipesched/internal/workload"
)

// h4Bounds spans an instance's period bounds from below H1's failure
// threshold (where H4 may still succeed, or fail with a payload) to
// loose ones near the single-processor period.
func h4Bounds(t *testing.T, ev *mapping.Evaluator) []float64 {
	t.Helper()
	h1, err := MinAchievablePeriod(ev, SpMonoP{})
	if err != nil {
		t.Fatal(err)
	}
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	p0 := ev.Period(single)
	bounds := []float64{h1 * 0.9, h1}
	for _, f := range []float64{0.05, 0.2, 0.45, 0.8} {
		bounds = append(bounds, h1+f*(p0-h1))
	}
	return append(bounds, p0*1.01)
}

// requireH4MatchesLegacy compares the memoised solve with the legacy one
// at every bound of h4Bounds and returns the number of solves.
func requireH4MatchesLegacy(t *testing.T, label string, ev *mapping.Evaluator) int {
	t.Helper()
	bounds := h4Bounds(t, ev)
	for _, b := range bounds {
		got, gotErr := SpBiP{}.MinimizeLatency(ev, b)
		want, wantErr := legacyH4(ev, b, 0)
		lbl := fmt.Sprintf("%s/bound=%g", label, b)
		requireSameResult(t, lbl, got, want)
		requireSameError(t, lbl, gotErr, wantErr)
	}
	return len(bounds)
}

// TestSpBiPMemoMatchesLegacy drives the memoised H4 against the legacy
// bisection over the paper's families and shapes (E1–E4 × n 5–40 ×
// p 10/100 × 10 seeds) and over rough random instances.
func TestSpBiPMemoMatchesLegacy(t *testing.T) {
	solves := 0
	for _, fam := range workload.Families() {
		for _, n := range []int{5, 10, 20, 40} {
			for _, p := range []int{10, 100} {
				for seed := int64(0); seed < 10; seed++ {
					ev := workload.Generate(workload.Config{Family: fam, Stages: n, Processors: p, Seed: 2400 + seed}).Evaluator()
					solves += requireH4MatchesLegacy(t, fmt.Sprintf("%v/n=%d/p=%d/seed=%d", fam, n, p, seed), ev)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(2424))
	for i := 0; i < 300; i++ {
		solves += requireH4MatchesLegacy(t, fmt.Sprintf("rand/%d", i), randEvaluator(r, 12, 10))
	}
	t.Logf("%d solves identical", solves)
}

// TestSpBiPMemoEngages pins the memo on one paper instance: its
// bisection runs more than 20 steps, yet only 5 trials run on the engine
// (counting the uncapped trial and any final rewind) and the rest come
// from the memo. A memo that stopped hitting would run one trial per
// step.
func TestSpBiPMemoEngages(t *testing.T) {
	ev := workload.Generate(workload.Config{Family: workload.E3, Stages: 40, Processors: 100, Seed: 2400}).Evaluator()
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	bound := ev.Period(single) * 0.4
	// The bisection stops once hi−lo ≤ relEps·(1+hi) and only lowers hi,
	// so from the uncapped latency hi it runs at least log2 of this
	// bracket's width in tolerances.
	uncapped, err := legacyNewState(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !uncapped.splitUntil(bound, splitOptions{rule: selectBi, maxLatency: math.Inf(1)}) {
		t.Fatal("uncapped trial misses the bound")
	}
	hi := uncapped.latency()
	if gap := (hi - ev.OptimalLatencyValue()) / (relEps * (1 + hi)); gap <= math.Exp2(20) {
		t.Fatalf("bracket %g tolerances wide: the bisection would run 20 steps or fewer", gap)
	}
	res, trials, err := SpBiP{}.bisect(ev, bound, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyH4(ev, bound, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "memo", res, want)
	if trials < 2 || trials >= DefaultBinaryIters/3 {
		t.Fatalf("%d trials ran on the engine, want between 2 and %d", trials, DefaultBinaryIters/3-1)
	}
}
