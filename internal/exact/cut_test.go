package exact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

// oracleStep is one backpointer of a dense test oracle: the start and
// class of the candidate a cell's value came from.
type oracleStep struct{ prev, class int }

// denseLatencyFill is the latency recurrence the kernel is pinned
// against: every cell of every row, with no bound, window, prefix or
// dominance prune. The only skip is the usage floor: a predecessor
// consuming c processors has no finite cell below c. It keeps a value
// and a backpointer per cell in tables of its own (denseLatencyTable),
// the candidate a strict-improvement scan in (transition, start) order
// settles on, and returns what run(objMinLatency, periodBound, nil) must
// return bit for bit, with the winning path its backpointers record.
// Keeping it out of the package means the kernel is never its own
// reference, and neither is the path reconstruct re-derives.
func (a *arena) denseLatencyFill(periodBound float64) (best float64, bestState int, path []mapping.Interval, ok bool) {
	return a.oracleWalk(a.denseLatencyTable(periodBound))
}

// denseLatencyTable fills denseLatencyFill's value and backpointer
// tables, states×(n+1) state-major as the arena's.
func (a *arena) denseLatencyTable(periodBound float64) (f []float64, back []oracleStep) {
	n, nn := a.n, a.n*a.n
	f, back = make([]float64, a.states*(n+1)), make([]oracleStep, a.states*(n+1))
	f[0] = 0
	for i := 1; i <= n; i++ {
		f[i] = inf
	}
	for S := 1; S < a.states; S++ {
		row := S * (n + 1)
		for i := 0; i <= n; i++ {
			bestV := inf
			var bestB oracleStep
			for t := a.transOff[S]; t < a.transOff[S+1]; t++ {
				k := int(a.transClass[t])
				prevRow := int(a.transPrev[t]) * (n + 1)
				for kk := int(a.usage[S]) - 1; kk < i; kk++ {
					idx := k*nn + (i-1)*n + kk
					if f[prevRow+kk] == inf || a.cost[idx].cyc > periodBound {
						continue
					}
					if cand := f[prevRow+kk] + a.cost[idx].lat; cand < bestV {
						bestV, bestB = cand, oracleStep{kk, k}
					}
				}
			}
			f[row+i], back[row+i] = bestV, bestB
		}
	}
	return f, back
}

// firstWithin is the state at which an exit-armed fill under latency
// cutoff L must stop: the smallest id whose dense final cell meets L,
// tail included, with that cell's value; ok is false when none does.
func (a *arena) firstWithin(f []float64, tail, L float64) (v float64, state int, ok bool) {
	n := a.n
	for S := 1; S < a.states; S++ {
		if v := f[S*(n+1)+n]; v < inf && v+tail <= L {
			return v, S, true
		}
	}
	return inf, 0, false
}

// emptySpans marks every row empty, so that after the next fill the rows
// with a non-empty span are exactly those that fill wrote: an exit-armed
// fill leaves the rows past its exit as they were.
func (a *arena) emptySpans() {
	for S := range a.spans {
		a.spans[S] = span{1, 0}
	}
}

// dominated reports a finite cell of the last latency fill that cutRow
// should have pruned: a cell (S, i) inside S's span with a one-step
// predecessor p = S - e_k whose cell (p, i) lies inside p's span at a
// value no greater. The fill must have run after emptySpans, so that
// only rows it wrote are read.
func (a *arena) dominated() error {
	n := a.n
	for S := 1; S < a.states; S++ {
		sp := a.spans[S]
		for i := int(sp.first); i <= int(sp.last); i++ {
			v := a.f[S*(n+1)+i]
			if v == inf {
				continue
			}
			for t := a.transOff[S]; t < a.transOff[S+1]; t++ {
				p := int(a.transPrev[t])
				ps := a.spans[p]
				if int(ps.first) <= i && i <= int(ps.last) && a.f[p*(n+1)+i] <= v {
					return fmt.Errorf("cell (%d, %d) = %v is dominated by (%d, %d) = %v", S, i, v, p, i, a.f[p*(n+1)+i])
				}
			}
		}
	}
	return nil
}

// oracleWalk merges an oracle's final cells in ascending state order with
// strict improvement, as merge does, and walks the winner's backpointers
// into its intervals, the classes taking their members in increasing-id
// order as reconstruct assigns them.
func (a *arena) oracleWalk(f []float64, back []oracleStep) (best float64, bestState int, path []mapping.Interval, ok bool) {
	n := a.n
	best = inf
	for S := 1; S < a.states; S++ {
		if v := f[S*(n+1)+n]; v < best {
			best, bestState = v, S
		}
	}
	if best == inf {
		return best, 0, nil, false
	}
	for i, S := n, bestState; i > 0; {
		b := back[S*(n+1)+i]
		path = append(path, mapping.Interval{Start: b.prev + 1, End: i, Proc: b.class})
		S -= a.radix[b.class]
		i = b.prev
	}
	slices.Reverse(path)
	cursor := make([]int, a.classes)
	for j := range path {
		class := path[j].Proc
		path[j].Proc = a.ev.Platform().ClassMember(class, cursor[class])
		cursor[class]++
	}
	return best, bestState, path, true
}

// oracleResult is the Result of an oracle's winning path.
func oracleResult(ev *mapping.Evaluator, path []mapping.Interval) (Result, error) {
	m, err := mapping.New(ev.Pipeline(), ev.Platform(), path)
	if err != nil {
		return Result{}, err
	}
	return Result{Mapping: m, Metrics: ev.Metrics(m)}, nil
}

// path is the winning path reconstruct re-derives from the arena's last
// fill, nil when it cannot.
func (a *arena) path(state int) []mapping.Interval {
	ivs, err := a.reconstruct(state)
	if err != nil {
		return nil
	}
	return ivs
}

// denseMinLatencyUnderPeriod is MinLatencyUnderPeriod through the dense
// oracle.
func denseMinLatencyUnderPeriod(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	a := acquireArena(ev)
	defer a.release()
	if _, _, path, ok := a.denseLatencyFill(maxPeriod * slack); ok {
		return oracleResult(ev, path)
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
// After every fill no cell may survive that cutRow's dominance rule
// drops. Besides probeInstances, dominanceInstances run at four
// candidates spread over their sorted set.
func TestCutFillMatchesDense(t *testing.T) {
	for ii, ev := range probeInstances(t) {
		t.Run(fmt.Sprintf("instance-%d", ii), func(t *testing.T) {
			t.Parallel()
			cutFillMatchesDense(t, fmt.Sprintf("instance %d", ii), ev, 0)
		})
	}
	for _, x := range dominanceInstances() {
		t.Run(x.name, func(t *testing.T) {
			t.Parallel()
			cutFillMatchesDense(t, x.name, x.ev, 4)
		})
	}
}

// cutFillMatchesDense checks one instance of TestCutFillMatchesDense at
// spread candidates (every candidate when spread is 0).
func cutFillMatchesDense(t *testing.T, name string, ev *mapping.Evaluator, spread int) {
	a := acquireArena(ev)
	defer a.release()
	tail := a.latencyTail()
	for ci, c := range spreadCandidates(a.sortedCandidates(), spread) {
		bound := c * slack
		v, state, want, ok := a.denseLatencyFill(bound)
		cuts := []float64{0, ev.OptimalLatencyValue() * 1.5, math.Inf(1)}
		if ok {
			opt := v + tail
			cuts = append(cuts, opt, math.Nextafter(opt, 0), math.Nextafter(opt, math.Inf(1)))
		}
		if h1, feasible := h1Latency(ev, c); feasible {
			cuts = append(cuts, h1)
		}
		// fill runs one latency fill and checks that it left no cell
		// that cutRow's dominance rule drops.
		fill := func(label string, cut *latencyCut) (float64, int, bool) {
			a.emptySpans()
			cv, cstate, cok := a.run(objMinLatency, bound, cut)
			if err := a.dominated(); err != nil {
				t.Fatalf("%s candidate %d %s: %v", name, ci, label, err)
			}
			return cv, cstate, cok
		}
		// verify checks one cut fill: the optimum survives exactly when
		// it is within L, with the dense value, state and path.
		verify := func(label string, L, cv float64, cstate int, cok bool) {
			if wantOK := ok && v+tail <= L; cok != wantOK {
				t.Fatalf("%s candidate %d %s: cut fill ok %v, dense %v (optimum %v)",
					name, ci, label, cok, wantOK, v+tail)
			}
			if cok && (math.Float64bits(cv) != math.Float64bits(v) || cstate != state ||
				!reflect.DeepEqual(a.path(cstate), want)) {
				t.Fatalf("%s candidate %d %s: cut fill (%v, %d) != dense (%v, %d)",
					name, ci, label, cv, cstate, v, state)
			}
		}
		for _, L := range cuts {
			label := fmt.Sprintf("cut %v", L)
			cv, cstate, cok := fill(label, &latencyCut{tail: tail, bound: L})
			verify(label, L, cv, cstate, cok)
		}
		// The uncut fill runs the kernel under an internal +Inf cut.
		cv, cstate, cok := fill("uncut", nil)
		verify("uncut", math.Inf(1), cv, cstate, cok)
		// An incumbent reading +Inf for k polls and L after them: once
		// L has been read the fill answers as a cut at L.
		for _, k := range []int{0, 2, 40} {
			for _, L := range cuts[3:] {
				label := fmt.Sprintf("incumbent %v after %d polls", L, k)
				inc := &fallingCeiling{k: k, ceil: L}
				cv, cstate, cok := fill(label, &latencyCut{tail: tail, bound: math.Inf(1), inc: inc})
				seen := math.Inf(1)
				if inc.polls > k {
					seen = L
				}
				verify(label, seen, cv, cstate, cok)
			}
		}
	}
}

// namedInstance is a test instance with its subtest name.
type namedInstance struct {
	name string
	ev   *mapping.Evaluator
}

// dominanceInstances are the instances, besides probeInstances, on
// which the latency fills are checked against cutRow's dominance rule:
// E1–E4 at n = 20 and 40 on p = 10, few-class platforms, and equal-work,
// one-speed, communication-free pipelines whose mappings tie exactly.
func dominanceInstances() []namedInstance {
	var xs []namedInstance
	for _, n := range []int{20, 40} {
		for fi, fam := range workload.Families() {
			ev := workload.Generate(workload.Config{Family: fam, Stages: n, Processors: 10, Seed: int64(3500 + 10*n + fi)}).Evaluator()
			xs = append(xs, namedInstance{fmt.Sprintf("%v-n=%d", fam, n), ev})
		}
	}
	r := rand.New(rand.NewSource(35))
	for i := 0; i < 6; i++ {
		xs = append(xs, namedInstance{fmt.Sprintf("few-class-%d", i), fewClassEvaluator(r, 4+r.Intn(9), 4+r.Intn(9), 1+i%3)})
	}
	for _, n := range []int{6, 12} {
		xs = append(xs, namedInstance{fmt.Sprintf("equal-works-n=%d", n), tiedEvaluator(n, 8)})
	}
	return xs
}

// spreadCandidates copies k candidates spread evenly over the sorted
// set, its first and last included, or all of them when k is 0 or the
// set is no larger.
func spreadCandidates(cands []float64, k int) []float64 {
	if k == 0 || len(cands) <= k {
		return append([]float64(nil), cands...)
	}
	spread := make([]float64, k)
	for j := range spread {
		spread[j] = cands[j*(len(cands)-1)/(k-1)]
	}
	return spread
}

// tiedEvaluator is an instance whose mappings tie exactly and often: n
// stages of equal work, no communication, p processors of one speed.
func tiedEvaluator(n, p int) *mapping.Evaluator {
	works, speeds := make([]float64, n), make([]float64, p)
	for i := range works {
		works[i] = 4
	}
	for i := range speeds {
		speeds[i] = 2
	}
	return mapping.NewEvaluator(pipeline.MustNew(works, make([]float64, n+1)), platform.MustNew(speeds, 10))
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
