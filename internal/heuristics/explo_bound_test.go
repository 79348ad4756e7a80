package heuristics

// scanThreeWay skips cut pairs that provably cannot become the pick: cut
// windows in every 3-way scan (H2, H3, X7, X8) and a sorted-assignment
// latency bound in uncapped bi scans (H3). The skips must be invisible in
// results: H2, H3, X7, X8 and their sweeper lanes return what the frozen
// legacy engine (legacy_oracle_test.go), which builds every candidate,
// returns bit for bit. Rough instances (repeated small-integer speeds,
// zero and tiny communications, works of very different magnitudes) make
// equal scores common, so a bound test that skipped a pair on a tie,
// which can still win on the second key or on generation order, shows up
// here. Fixed paper instances pin how many pairs the windows and bounds
// skip: a bound that never fired would pass the differential tests too.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

// roughEvaluator decodes shape into a small rough instance: n ≤ 24
// stages, p ≤ 12 processors with speeds in 1..4 (so speeds repeat), works
// that are small integers, fractions in [1e-3, 1] or integers up to
// 1017, communications that are zero, tiny or small integers, and a
// bandwidth in [1/8, 8]. Bytes past the end of shape read as 0, so every
// input decodes.
func roughEvaluator(shape []byte) *mapping.Evaluator {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(b)
	}
	n, p := 1+next()%24, 1+next()%12
	bw := float64(1+next()%64) / 8
	works := make([]float64, n)
	for i := range works {
		switch v := next(); v % 3 {
		case 0:
			works[i] = float64(1 + v%20)
		case 1:
			works[i] = math.Pow(10, -3*float64(v)/255)
		default:
			works[i] = float64(1 + 4*v)
		}
	}
	deltas := make([]float64, n+1)
	for i := range deltas {
		switch v := next(); v % 3 {
		case 0:
		case 1:
			deltas[i] = float64(v) * 1e-12
		default:
			deltas[i] = float64(v % 30)
		}
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = float64(1 + next()%4)
	}
	return mapping.NewEvaluator(pipeline.MustNew(works, deltas), platform.MustNew(speeds, bw))
}

// threeExploBounds returns an instance's period bounds in non-increasing
// order: 1.01× the single-processor period, the midpoint from H1's
// failure threshold to it, 1.3× and 1.05× the threshold, the threshold
// itself and 0 (every trajectory runs to exhaustion and fails).
func threeExploBounds(t *testing.T, ev *mapping.Evaluator) []float64 {
	t.Helper()
	thr, err := MinAchievablePeriod(ev, SpMonoP{})
	if err != nil {
		t.Fatal(err)
	}
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	p0 := ev.Period(single)
	bounds := []float64{0, thr, thr * 1.05, thr * 1.3, (thr + p0) / 2, p0 * 1.01}
	slices.Sort(bounds)
	slices.Reverse(bounds)
	return bounds
}

// threeExploBudgets returns an instance's latency budgets in ascending
// order: 0.98× the Lemma-1 optimum (every run fails), the optimum, and
// points from there to 1.5× top, the larger latency at which H2's and
// H3's uncapped trajectories run out of splits. That is the range over
// which a cap decides X7's and X8's 3-way candidates.
func threeExploBudgets(ev *mapping.Evaluator) []float64 {
	opt := ev.OptimalLatencyValue()
	top := opt
	for _, legacy := range []func(*mapping.Evaluator, float64) (Result, error){legacyH2, legacyH3} {
		// Bound 0 always fails, and res is where the splits ran out.
		res, _ := legacy(ev, 0)
		top = max(top, res.Metrics.Latency)
	}
	budgets := []float64{opt * 0.98, opt}
	for _, f := range []float64{0.05, 0.2, 0.5, 0.8, 1} {
		budgets = append(budgets, opt+(top-opt)*f)
	}
	return append(budgets, top*1.5)
}

// requireThreeExploMatchesLegacy compares H2 and H3, solved fresh and
// through one PeriodSweeper each over the descending bounds of
// threeExploBounds, and X7 and X8, solved fresh and through one
// LatencySweeper each over the ascending budgets of threeExploBudgets,
// with the legacy engine at every bound and budget.
func requireThreeExploMatchesLegacy(t *testing.T, label string, ev *mapping.Evaluator) {
	t.Helper()
	periodRuns := []struct {
		h      PeriodConstrained
		legacy func(*mapping.Evaluator, float64) (Result, error)
	}{
		{ThreeExploMono{}, legacyH2},
		{ThreeExploBi{}, legacyH3},
	}
	for _, run := range periodRuns {
		sw := NewPeriodSweeper(ev, run.h)
		for _, b := range threeExploBounds(t, ev) {
			lbl := fmt.Sprintf("%s/%s/bound=%g", label, run.h.ID(), b)
			want, wantErr := run.legacy(ev, b)
			got, gotErr := run.h.MinimizeLatency(ev, b)
			requireSameResult(t, lbl, got, want)
			requireSameError(t, lbl, gotErr, wantErr)
			got, gotErr = sw.Solve(b)
			requireSameResult(t, lbl+"/sweep", got, want)
			requireSameError(t, lbl+"/sweep", gotErr, wantErr)
		}
		sw.Close()
	}
	latencyRuns := []struct {
		h      LatencyConstrained
		legacy func(*mapping.Evaluator, float64) (Result, error)
	}{
		{ThreeExploMonoL{}, legacyX7},
		{ThreeExploBiL{}, legacyX8},
	}
	for _, run := range latencyRuns {
		sw := NewLatencySweeper(ev, run.h)
		for _, b := range threeExploBudgets(ev) {
			lbl := fmt.Sprintf("%s/%s/budget=%g", label, run.h.ID(), b)
			want, wantErr := run.legacy(ev, b)
			got, gotErr := run.h.MinimizePeriod(ev, b)
			requireSameResult(t, lbl, got, want)
			requireSameError(t, lbl, gotErr, wantErr)
			got, gotErr = sw.Solve(b)
			requireSameResult(t, lbl+"/sweep", got, want)
			requireSameError(t, lbl+"/sweep", gotErr, wantErr)
		}
		sw.Close()
	}
}

// TestThreeExploMatchesLegacy drives H2, H3, X7 and X8 against the
// legacy engine on the paper's shapes (E1–E4 × n ∈ {5, 10, 20, 40} × p ∈
// {10, 100}) and on 150 rough instances.
func TestThreeExploMatchesLegacy(t *testing.T) {
	for _, fam := range workload.Families() {
		for _, n := range workload.PaperStages() {
			for _, p := range workload.PaperProcessors() {
				ev := workload.Generate(workload.Config{Family: fam, Stages: n, Processors: p, Seed: 2700}).Evaluator()
				requireThreeExploMatchesLegacy(t, fmt.Sprintf("%v/n=%d/p=%d", fam, n, p), ev)
			}
		}
	}
	r := rand.New(rand.NewSource(2727))
	shape := make([]byte, 80)
	for i := 0; i < 150; i++ {
		r.Read(shape)
		requireThreeExploMatchesLegacy(t, fmt.Sprintf("rough/%d", i), roughEvaluator(shape))
	}
}

// engageTrajectory runs the uncapped 3-way trajectory of rule on a paper
// instance until it reaches 1.05× H1's failure threshold or runs out of
// splits, on the legacy engine and on the pooled one, and checks that
// both end in the same mapping, reporting whether they reached the
// target. The legacy engine takes the same trajectory and prices every
// cut pair, so it counts them. The caller releases the pooled state,
// whose pairsVisited and pairsPriced the pins below read.
func engageTrajectory(t *testing.T, cfg workload.Config, rule selectRule) (st *state, pairs int, reached bool) {
	t.Helper()
	ev := workload.Generate(cfg).Evaluator()
	thr, err := MinAchievablePeriod(ev, SpMonoP{})
	if err != nil {
		t.Fatal(err)
	}
	target := thr * 1.05
	opt := splitOptions{rule: rule, threeWay: true, maxLatency: math.Inf(1)}
	leg, err := legacyNewState(ev)
	if err != nil {
		t.Fatal(err)
	}
	reached = true
	for reached && !leq(leg.period(), target) {
		idx := leg.bottleneck()
		if m := leg.ivs[idx].End - leg.ivs[idx].Start + 1; m >= 3 && len(leg.free) >= 2 {
			pairs += (m - 1) * (m - 2) / 2
		}
		var c legacyCandidate
		if c, reached = leg.bestSplit(idx, opt); reached {
			leg.apply(idx, c)
		}
	}
	if st, err = acquireState(ev); err != nil {
		t.Fatal(err)
	}
	if st.splitUntil(target, opt) != reached {
		st.release()
		t.Fatalf("the pooled engine disagrees with the legacy one on reaching the target %g", target)
	}
	requireSameResult(t, "engage", st.result(), leg.result())
	if pairs == 0 {
		st.release()
		t.Fatal("the trajectory makes no 3-way scan")
	}
	return st, pairs, reached
}

// TestThreeExploBoundEngages pins the pair skip on one bulk-shaped
// instance: along H3's trajectory to 1.05× H1's failure threshold, more
// than half of the 3-way cut pairs must be skipped without building a
// candidate (about 98% are).
func TestThreeExploBoundEngages(t *testing.T) {
	st, pairs, reached := engageTrajectory(t, workload.Config{Family: workload.E4, Stages: 40, Processors: 100, Seed: 2700}, selectBi)
	defer st.release()
	if !reached {
		t.Fatalf("H3 misses the target (period %g)", st.period())
	}
	t.Logf("%d of %d cut pairs priced", st.pairsPriced, pairs)
	if 2*st.pairsPriced > pairs {
		t.Fatalf("%d of %d cut pairs priced: the bound skips fewer than half", st.pairsPriced, pairs)
	}
}

// TestThreeExploLatencyBoundEngages pins the sorted-assignment latency
// bound on a p=10 instance with large computations. Along H3's
// trajectory (which runs out of splits before 1.05× H1's threshold
// here), a bound that prices every part on procs[0] sees only the
// communication terms of the latency rise and leaves 1,119 of the 1,122
// cut pairs priced. The sorted bound prices 50 of them; fewer than a
// tenth must be priced.
func TestThreeExploLatencyBoundEngages(t *testing.T) {
	st, pairs, _ := engageTrajectory(t, workload.Config{Family: workload.E3, Stages: 40, Processors: 10, Seed: 2700}, selectBi)
	defer st.release()
	t.Logf("%d of %d cut pairs priced", st.pairsPriced, pairs)
	if 10*st.pairsPriced >= pairs {
		t.Fatalf("%d of %d cut pairs priced: the latency bound skips fewer than nine in ten", st.pairsPriced, pairs)
	}
}

// TestThreeExploWindowsEngage pins the cut windows on a p=10 instance
// with small computations, where the dropped communication terms matter:
// H2's loops visit 216 of its 956 cut pairs. Fewer than a third must be
// visited.
func TestThreeExploWindowsEngage(t *testing.T) {
	st, pairs, _ := engageTrajectory(t, workload.Config{Family: workload.E4, Stages: 40, Processors: 10, Seed: 2700}, selectMono)
	defer st.release()
	t.Logf("%d of %d cut pairs visited, %d priced", st.pairsVisited, pairs, st.pairsPriced)
	if 3*st.pairsVisited >= pairs {
		t.Fatalf("%d of %d cut pairs visited: the windows drop fewer than two in three", st.pairsVisited, pairs)
	}
}

// FuzzThreeExploMatchesLegacy decodes arbitrary bytes into a rough
// instance (roughEvaluator) and checks H2, H3, X7, X8 and their sweeper
// grids against the legacy engine (requireThreeExploMatchesLegacy). The
// seed corpus is testdata/fuzz/FuzzThreeExploMatchesLegacy.
func FuzzThreeExploMatchesLegacy(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape []byte) {
		requireThreeExploMatchesLegacy(t, "fuzz", roughEvaluator(shape))
	})
}
