package exact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/workload"
)

// denseLatencyFill is the latency recurrence the kernel is pinned
// against: every cell of every row, with no bound, window or prefix
// prune. The only skip is the usage floor: a predecessor consuming c
// processors has no finite cell below c. It fills the arena's tables, so
// reconstruct walks its winning path, and it returns what
// run(objMinLatency, periodBound, nil) must return bit for bit. Keeping
// it out of the package means the kernel is never its own reference.
func (a *arena) denseLatencyFill(periodBound float64) (best float64, bestState int, ok bool) {
	n, nn := a.n, a.n*a.n
	f, back := a.f, a.back
	f[0] = 0
	for i := 1; i <= n; i++ {
		f[i] = inf
	}
	for S := 1; S < a.states; S++ {
		row := S * (n + 1)
		for i := 0; i <= n; i++ {
			bestV := inf
			var bestB int32
			for t := a.transOff[S]; t < a.transOff[S+1]; t++ {
				k := int(a.transClass[t])
				prevRow := int(a.transPrev[t]) * (n + 1)
				for kk := int(a.usage[S]) - 1; kk < i; kk++ {
					idx := k*nn + (i-1)*n + kk
					if f[prevRow+kk] == inf || a.cost[idx].cyc > periodBound {
						continue
					}
					if cand := f[prevRow+kk] + a.cost[idx].lat; cand < bestV {
						bestV, bestB = cand, int32(kk)<<classShift|int32(k)
					}
				}
			}
			f[row+i] = bestV
			if bestV < inf {
				back[row+i] = bestB
			}
		}
	}
	return a.merge()
}

// denseMinLatencyUnderPeriod is MinLatencyUnderPeriod through the dense
// oracle.
func denseMinLatencyUnderPeriod(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	a := acquireArena(ev)
	defer a.release()
	if _, state, ok := a.denseLatencyFill(maxPeriod * slack); ok {
		return a.result(state)
	}
	return Result{}, ErrInfeasible
}

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

// h1Latency is the latency heuristic H1 reaches under maxPeriod, the
// incumbent a sequential race hands the DP; ok is false when H1 fails.
func h1Latency(ev *mapping.Evaluator, maxPeriod float64) (float64, bool) {
	res, err := heuristics.SpMonoP{}.MinimizeLatency(ev, maxPeriod)
	return res.Metrics.Latency, err == nil
}

// TestCutFillMatchesDense pins the pruned kernel at every candidate
// period bound: a fill cut at latency L returns the dense fill's
// optimum, winning state and path bit for bit when the optimum is
// within L, and nothing otherwise. The cuts sit at the
// optimum, one ulp either side of it, at H1's latency, well above it and
// at +Inf; a fixed or falling incumbent is polled the way the race polls
// it. A bound that ever prunes a cell still able to finish within the
// cut, by an off-by-one in the remaining work or by rounding, fails here.
func TestCutFillMatchesDense(t *testing.T) {
	for ii, ev := range probeInstances(t) {
		t.Run(fmt.Sprintf("instance-%d", ii), func(t *testing.T) {
			t.Parallel()
			cutFillMatchesDense(t, ii, ev)
		})
	}
}

// cutFillMatchesDense checks one instance of TestCutFillMatchesDense.
func cutFillMatchesDense(t *testing.T, ii int, ev *mapping.Evaluator) {
	a := acquireArena(ev)
	defer a.release()
	tail := a.latencyTail()
	for ci, c := range append([]float64(nil), a.sortedCandidates()...) {
		bound := c * slack
		v, state, ok := a.denseLatencyFill(bound)
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
		// verify checks one cut fill: the optimum survives exactly when
		// it is within L, with the dense value, state and path.
		verify := func(label string, L, cv float64, cstate int, cok bool) {
			if wantOK := ok && v+tail <= L; cok != wantOK {
				t.Fatalf("instance %d candidate %d %s: cut fill ok %v, dense %v (optimum %v)",
					ii, ci, label, cok, wantOK, v+tail)
			}
			if cok && (math.Float64bits(cv) != math.Float64bits(v) || cstate != state ||
				!reflect.DeepEqual(a.reconstruct(cstate), want)) {
				t.Fatalf("instance %d candidate %d %s: cut fill (%v, %d) != dense (%v, %d)",
					ii, ci, label, cv, cstate, v, state)
			}
		}
		for _, L := range cuts {
			cv, cstate, cok := a.run(objMinLatency, bound, &latencyCut{tail: tail, bound: L})
			verify(fmt.Sprintf("cut %v", L), L, cv, cstate, cok)
		}
		// The uncut fill runs the kernel under an internal +Inf cut.
		cv, cstate, cok := a.run(objMinLatency, bound, nil)
		verify("uncut", math.Inf(1), cv, cstate, cok)
		// An incumbent reading +Inf for k polls and L after them: once
		// L has been read the fill answers as a cut at L.
		for _, k := range []int{0, 2, 40} {
			for _, L := range cuts[3:] {
				inc := &fallingCeiling{k: k, ceil: L}
				cv, cstate, cok := a.run(objMinLatency, bound, &latencyCut{tail: tail, bound: math.Inf(1), inc: inc})
				seen := math.Inf(1)
				if inc.polls > k {
					seen = L
				}
				verify(fmt.Sprintf("incumbent %v after %d polls", L, k), seen, cv, cstate, cok)
			}
		}
	}
}

// TestMinLatencyUnderPeriodWithin pins the raced entry point against
// the dense oracle under fixed incumbents — the optimum's latency,
// one ulp either side, H1's latency and +Inf: the same mapping bit for
// bit when the optimum is within the incumbent, ErrNotBelow when it is
// not, and ErrInfeasible only when the incumbent read +Inf throughout
// and no mapping meets the period bound.
func TestMinLatencyUnderPeriodWithin(t *testing.T) {
	for ii, ev := range probeInstances(t) {
		a := acquireArena(ev)
		cands := append([]float64(nil), a.sortedCandidates()...)
		a.release()
		periods := []float64{cands[0] * 0.5, cands[len(cands)/3], cands[len(cands)/2], cands[len(cands)-1]}
		for _, period := range periods {
			ref, refErr := denseMinLatencyUnderPeriod(ev, period)
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
		}
	}
}

// TestCutKernelPaperShapes pins both race entry points bit for bit on
// the shapes the portfolio race hands them: E1–E4 at n = 20 and 40 on
// p = 10 processors, whose near-distinct speeds give the kernel's reach
// and completion tables their largest prunes. For f = 0.2, 0.5 and 0.8:
//   - at the latency bound (1+f)× the Lemma-1 latency, the min-period
//     bisection under H5's period as ceiling returns the full-fill
//     oracle's mapping, or ErrNotBelow exactly when the oracle's
//     candidate reaches that ceiling;
//   - at the period bound f of the way from the period lower bound to
//     the single-processor period, the min-latency fill returns the
//     dense oracle's answer, and under H1's latency its mapping, or
//     ErrNotBelow exactly when the oracle's latency exceeds H1's (or
//     nothing is feasible).
func TestCutKernelPaperShapes(t *testing.T) {
	for _, n := range []int{20, 40} {
		for fi, fam := range workload.Families() {
			ev := workload.Generate(workload.Config{Family: fam, Stages: n, Processors: 10, Seed: int64(2300 + fi)}).Evaluator()
			t.Run(fmt.Sprintf("%v-n=%d", fam, n), func(t *testing.T) {
				t.Parallel()
				cutKernelPaperShape(t, fmt.Sprintf("%v n=%d", fam, n), ev)
			})
		}
	}
}

// cutKernelPaperShape checks one instance of TestCutKernelPaperShapes.
func cutKernelPaperShape(t *testing.T, name string, ev *mapping.Evaluator) {
	optLat := ev.OptimalLatencyValue()
	lb := lowerbound.Period(ev)
	single, _ := ev.OptimalLatency()
	for _, f := range []float64{0.2, 0.5, 0.8} {
		lat := optLat * (1 + f)
		ref, opt, err := fullFillMinPeriodUnderLatency(ev, lat)
		if err != nil {
			t.Fatalf("%s latency %g: oracle: %v", name, lat, err)
		}
		ceil := math.Inf(1)
		if h5, err := (heuristics.SpMonoL{}).MinimizePeriod(ev, lat); err == nil {
			ceil = h5.Metrics.Period
		}
		got, err := MinPeriodUnderLatencyBelow(ev, lat, func() float64 { return ceil })
		if opt >= ceil {
			if !errors.Is(err, ErrNotBelow) {
				t.Fatalf("%s latency %g ceiling %g: got (%+v, %v), want ErrNotBelow", name, lat, ceil, got.Metrics, err)
			}
		} else if !sameOutcome(got, err, ref, nil) {
			t.Fatalf("%s latency %g ceiling %g: (%+v, %v) != oracle %+v", name, lat, ceil, got.Metrics, err, ref.Metrics)
		}

		period := lb + f*(ev.Period(single)-lb)
		dense, denseErr := denseMinLatencyUnderPeriod(ev, period)
		if denseErr != nil && !errors.Is(denseErr, ErrInfeasible) {
			t.Fatalf("%s period %g: oracle: %v", name, period, denseErr)
		}
		if got, err := MinLatencyUnderPeriod(ev, period); !sameOutcome(got, err, dense, denseErr) {
			t.Fatalf("%s period %g: uncut (%+v, %v) != oracle (%+v, %v)", name, period, got.Metrics, err, dense.Metrics, denseErr)
		}
		h1, h1ok := h1Latency(ev, period)
		if !h1ok {
			h1 = math.Inf(1)
		}
		got, err = MinLatencyUnderPeriodWithin(ev, period, fixedCeiling(h1))
		switch {
		case denseErr != nil && !h1ok:
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s period %g: got %v, want ErrInfeasible", name, period, err)
			}
		case denseErr != nil || dense.Metrics.Latency > h1:
			if !errors.Is(err, ErrNotBelow) {
				t.Fatalf("%s period %g incumbent %g: got (%+v, %v), want ErrNotBelow", name, period, h1, got.Metrics, err)
			}
		case !sameOutcome(got, err, dense, nil):
			t.Fatalf("%s period %g incumbent %g: (%+v, %v) != oracle %+v", name, period, h1, got.Metrics, err, dense.Metrics)
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
