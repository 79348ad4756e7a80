package heuristics

// scanThreeWay skips a cut pair whose procs[0] bound already loses to
// the running best (H2, H3). The skip must be invisible in results: H2,
// H3 and their PeriodSweeper lanes return what the frozen legacy engine
// (legacy_oracle_test.go), which builds every candidate, returns bit for
// bit. Rough instances (repeated small-integer speeds, zero and tiny
// communications, works of very different magnitudes) make equal scores
// common, so a bound test that skipped a pair on a tie, which can still
// win on the second key or on generation order, shows up here. A fixed
// paper instance pins how many pairs the bound skips: a bound that never
// fired would pass the differential tests too.

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

// requireThreeExploMatchesLegacy compares H2 and H3, solved fresh and
// through one PeriodSweeper each over the descending bounds, with the
// legacy engine at every bound of threeExploBounds.
func requireThreeExploMatchesLegacy(t *testing.T, label string, ev *mapping.Evaluator) {
	t.Helper()
	runs := []struct {
		h      PeriodConstrained
		legacy func(*mapping.Evaluator, float64) (Result, error)
	}{
		{ThreeExploMono{}, legacyH2},
		{ThreeExploBi{}, legacyH3},
	}
	for _, run := range runs {
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
}

// TestThreeExploMatchesLegacy drives H2 and H3 against the legacy engine
// on the paper's shapes (E1–E4 × n ∈ {5, 10, 20, 40} × p ∈ {10, 100})
// and on 150 rough instances.
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

// TestThreeExploBoundEngages pins the pair skip on one bulk-shaped
// instance: along H3's trajectory to 1.05× H1's failure threshold, more
// than half of the 3-way cut pairs must be skipped without building a
// candidate (about 98% are). The legacy engine takes the same
// trajectory and prices every pair, so it counts them.
func TestThreeExploBoundEngages(t *testing.T) {
	ev := workload.Generate(workload.Config{Family: workload.E4, Stages: 40, Processors: 100, Seed: 2700}).Evaluator()
	thr, err := MinAchievablePeriod(ev, SpMonoP{})
	if err != nil {
		t.Fatal(err)
	}
	target := thr * 1.05
	opt := splitOptions{rule: selectBi, threeWay: true, maxLatency: math.Inf(1)}
	leg, err := legacyNewState(ev)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for !leq(leg.period(), target) {
		idx := leg.bottleneck()
		if m := leg.ivs[idx].End - leg.ivs[idx].Start + 1; m >= 3 && len(leg.free) >= 2 {
			pairs += (m - 1) * (m - 2) / 2
		}
		c, ok := leg.bestSplit(idx, opt)
		if !ok {
			t.Fatalf("no split before the target %g (period %g)", target, leg.period())
		}
		leg.apply(idx, c)
	}
	st, err := acquireState(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer st.release()
	if !st.splitUntil(target, opt) {
		t.Fatalf("H3 misses the target %g", target)
	}
	requireSameResult(t, "engage", st.result(), leg.result())
	t.Logf("%d of %d cut pairs priced", st.pairsPriced, pairs)
	if pairs == 0 || 2*st.pairsPriced > pairs {
		t.Fatalf("%d of %d cut pairs priced: the bound skips fewer than half", st.pairsPriced, pairs)
	}
}

// FuzzThreeExploMatchesLegacy decodes arbitrary bytes into a rough
// instance (roughEvaluator) and checks H2, H3 and their PeriodSweeper
// grids against the legacy engine (requireThreeExploMatchesLegacy). The
// seed corpus is testdata/fuzz/FuzzThreeExploMatchesLegacy.
func FuzzThreeExploMatchesLegacy(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape []byte) {
		requireThreeExploMatchesLegacy(t, "fuzz", roughEvaluator(shape))
	})
}
