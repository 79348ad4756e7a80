package exact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

// fullFillMinPeriodUnderLatency is the bisection as it stood before
// early-exit probes and ceilings: every probe fills the whole table
// through the dense oracle and tests the merged optimum. It is the
// oracle the probing solver is pinned against, and it also reports the
// candidate period the bisection settled on. The mapping's own period
// can exceed that candidate by the bound slack, when two cycle-times lie
// an ulp apart.
func fullFillMinPeriodUnderLatency(ev *mapping.Evaluator, maxLatency float64) (Result, float64, error) {
	a := acquireArena(ev)
	defer a.release()
	cands := a.sortedCandidates()
	tail := a.latencyTail()
	latBound := maxLatency * slack
	feasibleAt := func(period float64) (int, bool) {
		v, state, ok := a.denseLatencyFill(period * slack)
		return state, ok && v+tail <= latBound
	}
	lo, hi := 0, len(cands)-1
	if _, ok := feasibleAt(cands[hi]); !ok {
		return Result{}, 0, ErrInfeasible
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := feasibleAt(cands[mid]); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	state, _ := feasibleAt(cands[lo])
	res, err := a.result(state)
	return res, cands[lo], err
}

// probeInstances draws random instances whose speeds repeat, plus one
// few-class platform with a large state space (9^4 = 6561 states).
func probeInstances(t *testing.T) []*mapping.Evaluator {
	var evs []*mapping.Evaluator
	for seed := int64(0); seed < 40; seed++ {
		evs = append(evs, dupSpeedEvaluator(rand.New(rand.NewSource(3100+seed)), 12, 10, 4))
	}
	big := fewClassEvaluator(rand.New(rand.NewSource(7)), 6, 32, 4)
	if s := big.Platform().ClassStateSpace(); s < 4096 {
		t.Fatalf("few-class instance has %d states, want at least 4096", s)
	}
	return append(evs, big)
}

// fewClassEvaluator builds an instance whose platform has exactly
// `classes` speed classes of roughly p/classes members each — the shape
// whose compressed state space grows large.
func fewClassEvaluator(r *rand.Rand, n, p, classes int) *mapping.Evaluator {
	works := make([]float64, n)
	for i := range works {
		works[i] = float64(1 + r.Intn(20))
	}
	deltas := make([]float64, n+1)
	for i := range deltas {
		deltas[i] = float64(r.Intn(30))
	}
	classSpeeds := make([]float64, classes)
	for k := range classSpeeds {
		classSpeeds[k] = float64(1 + k*3 + r.Intn(3))
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = classSpeeds[i%classes]
	}
	return mapping.NewEvaluator(pipeline.MustNew(works, deltas), platform.MustNew(speeds, 10))
}

// sameOutcome compares two solver outcomes bit for bit: the same error,
// or the same metrics bits and the same intervals.
func sameOutcome(a Result, aerr error, b Result, berr error) bool {
	if aerr != nil || berr != nil {
		return errors.Is(aerr, ErrInfeasible) && errors.Is(berr, ErrInfeasible)
	}
	return math.Float64bits(a.Metrics.Period) == math.Float64bits(b.Metrics.Period) &&
		math.Float64bits(a.Metrics.Latency) == math.Float64bits(b.Metrics.Latency) &&
		reflect.DeepEqual(a.Mapping.Intervals(), b.Mapping.Intervals())
}

// TestProbeMatchesFullFill pins the early exit: at every candidate period
// bound, the probe's answer equals the predicate a full fill applies to
// its merged optimum — at the optimum's exact latency, one ulp below it,
// and at bounds around the Lemma-1 latency.
func TestProbeMatchesFullFill(t *testing.T) {
	for ii, ev := range probeInstances(t) {
		t.Run(fmt.Sprintf("instance-%d", ii), func(t *testing.T) {
			t.Parallel()
			a := acquireArena(ev)
			defer a.release()
			tail := a.latencyTail()
			optLat := ev.OptimalLatencyValue()
			for ci, c := range append([]float64(nil), a.sortedCandidates()...) {
				bound := c * slack
				v, _, ok := a.denseLatencyFill(bound)
				lats := []float64{0, optLat, optLat * 1.25, optLat * 2, math.Inf(1)}
				if ok {
					lats = append(lats, v+tail, math.Nextafter(v+tail, math.Inf(-1)))
				}
				for _, lat := range lats {
					want := ok && v+tail <= lat
					found, got := a.probe(bound, tail, lat)
					if got != want {
						t.Fatalf("instance %d candidate %d latency %g: probe %v, full fill %v", ii, ci, lat, got, want)
					}
					// The final fill is cut at the latency a passing probe found.
					if got && (found > lat || found < v+tail) {
						t.Fatalf("instance %d candidate %d latency %g: probe found %v, outside [%v, %v]", ii, ci, lat, found, v+tail, lat)
					}
				}
			}
		})
	}
}

// TestMinPeriodUnderLatencyBelow pins the ceiling: under a fixed ceiling
// the solver returns exactly the full-fill bisection's mapping, or
// ErrNotBelow exactly when the unbounded optimum — the candidate period
// the bisection settles on — is at or above the ceiling (ErrInfeasible
// when nothing is feasible and the ceiling excluded no candidate). The
// mapping's period is never below that candidate, so ErrNotBelow only
// ever withholds a mapping whose period reaches the ceiling. With no
// ceiling the solver is the full-fill bisection.
func TestMinPeriodUnderLatencyBelow(t *testing.T) {
	for ii, ev := range probeInstances(t) {
		t.Run(fmt.Sprintf("instance-%d", ii), func(t *testing.T) {
			t.Parallel()
			a := acquireArena(ev)
			cands := append([]float64(nil), a.sortedCandidates()...)
			a.release()
			maxCand := cands[len(cands)-1]
			optLat := ev.OptimalLatencyValue()
			for _, factor := range []float64{0.9, 1, 1.2, 1.5, 1.8, 3} {
				lat := optLat * factor
				ref, opt, refErr := fullFillMinPeriodUnderLatency(ev, lat)
				if refErr != nil && !errors.Is(refErr, ErrInfeasible) {
					t.Fatalf("instance %d latency %g: oracle: %v", ii, lat, refErr)
				}
				if refErr == nil && ref.Metrics.Period < opt {
					t.Fatalf("instance %d latency %g: mapping period %g below its candidate %g", ii, lat, ref.Metrics.Period, opt)
				}
				if got, err := MinPeriodUnderLatency(ev, lat); !sameOutcome(got, err, ref, refErr) {
					t.Fatalf("instance %d latency %g: unbounded solve (%+v, %v) != oracle (%+v, %v)", ii, lat, got.Metrics, err, ref.Metrics, refErr)
				}
				ceilings := []float64{0, cands[0], cands[len(cands)/2], maxCand, maxCand * 2, math.Inf(1)}
				if refErr == nil {
					ceilings = append(ceilings, opt, math.Nextafter(opt, math.Inf(1)), math.Nextafter(opt, 0), ref.Metrics.Period)
				}
				for _, ceil := range ceilings {
					got, err := MinPeriodUnderLatencyBelow(ev, lat, func() float64 { return ceil })
					switch {
					case refErr != nil && ceil > maxCand:
						if !errors.Is(err, ErrInfeasible) {
							t.Fatalf("instance %d latency %g ceiling %g: got %v, want ErrInfeasible", ii, lat, ceil, err)
						}
					case refErr != nil || opt >= ceil:
						if !errors.Is(err, ErrNotBelow) {
							t.Fatalf("instance %d latency %g ceiling %g: got (%+v, %v), want ErrNotBelow", ii, lat, ceil, got.Metrics, err)
						}
					case !sameOutcome(got, err, ref, nil):
						t.Fatalf("instance %d latency %g ceiling %g: (%+v, %v) != oracle %+v", ii, lat, ceil, got.Metrics, err, ref.Metrics)
					}
				}
			}
		})
	}
}

// TestMinPeriodUnderLatencyBelowFallingCeiling drops the ceiling after k
// polls, the way a race incumbent falls mid-solve. Once a poll has seen a
// ceiling at or below the unbounded optimum the answer must be
// ErrNotBelow; otherwise it must be the oracle's mapping, bit for bit.
func TestMinPeriodUnderLatencyBelowFallingCeiling(t *testing.T) {
	for ii, ev := range probeInstances(t) {
		lat := ev.OptimalLatencyValue() * 1.5
		ref, opt, err := fullFillMinPeriodUnderLatency(ev, lat)
		if err != nil {
			t.Fatalf("instance %d: oracle: %v", ii, err)
		}
		for _, ceil := range []float64{opt, math.Nextafter(opt, 0), math.Nextafter(opt, math.Inf(1))} {
			for k := 0; k < 12; k++ {
				polls, seen := 0, false
				got, err := MinPeriodUnderLatencyBelow(ev, lat, func() float64 {
					if polls++; polls > k {
						seen = true
						return ceil
					}
					return math.Inf(1)
				})
				if seen && opt >= ceil {
					if !errors.Is(err, ErrNotBelow) {
						t.Fatalf("instance %d ceiling %g after %d polls: got (%+v, %v), want ErrNotBelow", ii, ceil, k, got.Metrics, err)
					}
				} else if !sameOutcome(got, err, ref, nil) {
					t.Fatalf("instance %d ceiling %g after %d polls: (%+v, %v) != oracle %+v", ii, ceil, k, got.Metrics, err, ref.Metrics)
				}
			}
		}
	}
}

// TestMinPeriodUnderLatencyAllocs: probes reuse the pooled arena, so a
// warm solve allocates only the returned mapping — with or without a
// ceiling.
func TestMinPeriodUnderLatencyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops entries)")
	}
	ev := fewClassEvaluator(rand.New(rand.NewSource(11)), 12, 9, 3)
	lat := ev.OptimalLatencyValue() * 1.5
	ceiling := math.Inf(1)
	ceil := func() float64 { return ceiling }
	for name, run := range map[string]func(){
		"unbounded": func() {
			if _, err := MinPeriodUnderLatency(ev, lat); err != nil {
				t.Fatal(err)
			}
		},
		"ceiling": func() {
			if _, err := MinPeriodUnderLatencyBelow(ev, lat, ceil); err != nil {
				t.Fatal(err)
			}
		},
	} {
		run() // warm the arena pool
		if got := testing.AllocsPerRun(50, run); got > 2 {
			t.Errorf("%s: %.1f allocs/run, want 2", name, got)
		}
	}
}
