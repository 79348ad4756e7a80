package exact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
)

// fixedCeiling is an Incumbent that never moves.
type fixedCeiling float64

func (c fixedCeiling) Best() float64 { return float64(c) }

// fallingCeiling reads +Inf for its first k polls and ceil after them,
// the way a race incumbent falls while the DP fills its table.
type fallingCeiling struct {
	k, polls int
	ceil     float64
}

func (c *fallingCeiling) Best() float64 {
	if c.polls++; c.polls > c.k {
		return c.ceil
	}
	return math.Inf(1)
}

// latencyFill runs one latency fill of a: serially when workers is 0,
// otherwise on the wave runner with that many strata.
func latencyFill(a *arena, workers int, periodBound float64, cut *latencyCut) (float64, int, bool) {
	if workers == 0 {
		return a.runSerial(objMinLatency, periodBound, cut)
	}
	return a.runParallel(objMinLatency, periodBound, cut, workers)
}

// h1Latency is the latency heuristic H1 reaches under maxPeriod, the
// incumbent a sequential race hands the DP; ok is false when H1 fails.
func h1Latency(ev *mapping.Evaluator, maxPeriod float64) (float64, bool) {
	res, err := heuristics.SpMonoP{}.MinimizeLatency(ev, maxPeriod)
	return res.Metrics.Latency, err == nil
}

// TestCutFillMatchesDense pins the pruned kernel at every candidate
// period bound, on both schedules: a fill cut at latency L returns the
// dense fill's optimum, winning state and path bit for bit when the
// optimum is within L, and nothing otherwise. The cuts sit at the
// optimum, one ulp either side of it, at H1's latency, well above it and
// at +Inf; a fixed or falling incumbent is polled the way the race polls
// it. A bound that ever prunes a cell still able to finish within the
// cut, by an off-by-one in the remaining work or by rounding, fails here.
func TestCutFillMatchesDense(t *testing.T) {
	for ii, ev := range probeInstances(t) {
		a := acquireArena(ev)
		tail := a.latencyTail()
		for ci, c := range append([]float64(nil), a.candidates()...) {
			bound := c * slack
			v, state, ok := a.runSerial(objMinLatency, bound, nil)
			var want []mapping.Interval
			cuts := []float64{0, ev.OptimalLatencyValue() * 1.5, math.Inf(1)}
			if ok {
				want = append(want, a.reconstruct(state)...)
				opt := v + tail
				cuts = append(cuts, opt, math.Nextafter(opt, 0), math.Nextafter(opt, math.Inf(1)))
			}
			if h1, feasible := h1Latency(ev, c); feasible {
				cuts = append(cuts, h1)
			}
			// The serial row order, and the wave runner forced to three
			// strata so the wave schedule runs at any GOMAXPROCS.
			for _, workers := range []int{0, 3} {
				// verify checks one cut fill: the optimum survives exactly
				// when it is within L, with the dense value, state and path.
				verify := func(label string, L, cv float64, cstate int, cok bool) {
					if wantOK := ok && v+tail <= L; cok != wantOK {
						t.Fatalf("instance %d candidate %d %s workers %d: cut fill ok %v, dense %v (optimum %v)",
							ii, ci, label, workers, cok, wantOK, v+tail)
					}
					if cok && (math.Float64bits(cv) != math.Float64bits(v) || cstate != state ||
						!reflect.DeepEqual(a.reconstruct(cstate), want)) {
						t.Fatalf("instance %d candidate %d %s workers %d: cut fill (%v, %d) != dense (%v, %d)",
							ii, ci, label, workers, cv, cstate, v, state)
					}
				}
				for _, L := range cuts {
					cv, cstate, cok := latencyFill(a, workers, bound, &latencyCut{tail: tail, bound: L})
					verify(fmt.Sprintf("cut %v", L), L, cv, cstate, cok)
				}
				// An incumbent reading +Inf for k polls and L after them:
				// once L has been read the fill answers as a cut at L.
				for _, k := range []int{0, 2, 40} {
					for _, L := range cuts[3:] {
						inc := &fallingCeiling{k: k, ceil: L}
						cv, cstate, cok := latencyFill(a, workers, bound, &latencyCut{tail: tail, bound: math.Inf(1), inc: inc})
						seen := math.Inf(1)
						if inc.polls > k {
							seen = L
						}
						verify(fmt.Sprintf("incumbent %v after %d polls", L, k), seen, cv, cstate, cok)
					}
				}
			}
		}
		a.release()
	}
}

// TestMinLatencyUnderPeriodWithin pins the raced entry point against
// MinLatencyUnderPeriod under fixed incumbents — the optimum's latency,
// one ulp either side, H1's latency and +Inf — on both schedules: the
// same mapping bit for bit when the optimum is within the incumbent,
// ErrNotBelow when it is not, and ErrInfeasible only when the incumbent
// read +Inf throughout and no mapping meets the period bound.
func TestMinLatencyUnderPeriodWithin(t *testing.T) {
	for ii, ev := range probeInstances(t) {
		a := acquireArena(ev)
		cands := append([]float64(nil), a.candidates()...)
		a.release()
		periods := []float64{cands[0] * 0.5, cands[len(cands)/3], cands[len(cands)/2], cands[len(cands)-1]}
		for _, period := range periods {
			ref, refErr := MinLatencyUnderPeriod(ev, period)
			if refErr != nil && !errors.Is(refErr, ErrInfeasible) {
				t.Fatalf("instance %d period %g: %v", ii, period, refErr)
			}
			ceilings := []float64{math.Inf(1), ev.OptimalLatencyValue()}
			if refErr == nil {
				lat := ref.Metrics.Latency
				ceilings = append(ceilings, lat, math.Nextafter(lat, 0), math.Nextafter(lat, math.Inf(1)))
			}
			if h1, ok := h1Latency(ev, period); ok {
				ceilings = append(ceilings, h1)
			}
			for _, threshold := range []int{1 << 30, 1} {
				withThreshold(threshold, func() {
					for _, ceil := range ceilings {
						got, err := MinLatencyUnderPeriodWithin(ev, period, fixedCeiling(ceil))
						switch {
						case refErr != nil && math.IsInf(ceil, 1):
							if !errors.Is(err, ErrInfeasible) {
								t.Fatalf("instance %d period %g: got %v, want ErrInfeasible", ii, period, err)
							}
						case refErr != nil || ref.Metrics.Latency > ceil:
							if !errors.Is(err, ErrNotBelow) {
								t.Fatalf("instance %d period %g ceiling %v: got (%+v, %v), want ErrNotBelow", ii, period, ceil, got.Metrics, err)
							}
						case !sameOutcome(got, err, ref, nil):
							t.Fatalf("instance %d period %g ceiling %v: (%+v, %v) != dense %+v", ii, period, ceil, got.Metrics, err, ref.Metrics)
						}
					}
				})
			}
		}
	}
}

// TestMinLatencyUnderPeriodWithinAllocs: a warm raced solve allocates
// only the returned mapping, as the dense one does.
func TestMinLatencyUnderPeriodWithinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops entries)")
	}
	ev := fewClassEvaluator(rand.New(rand.NewSource(11)), 12, 9, 3)
	period := ev.OptimalLatencyValue() // the single-processor mapping's period: feasible
	res, err := MinLatencyUnderPeriod(ev, period)
	if err != nil {
		t.Fatal(err)
	}
	inc := heuristics.NewIncumbent()
	inc.Offer(res.Metrics.Latency)
	run := func() {
		if _, err := MinLatencyUnderPeriodWithin(ev, period, inc); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena pool
	if got := testing.AllocsPerRun(50, run); got > 2 {
		t.Errorf("%.1f allocs/run, want 2", got)
	}
}
