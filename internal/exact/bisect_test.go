package exact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/workload"
)

// sortedBisectMinPeriodBelow is MinPeriodUnderLatencyBelow before it
// collected only the candidates below the ceiling: it sorts the full
// candidate set up front, polls the ceiling before every probe, and cuts
// the final fill at the latency bound. It is the oracle the solver's
// answers, errors and probe sequence are pinned against.
func sortedBisectMinPeriodBelow(ev *mapping.Evaluator, maxLatency float64, ceiling func() float64) (Result, error) {
	if err := guard(ev); err != nil {
		return Result{}, err
	}
	a := acquireArena(ev)
	defer a.release()
	cands := a.sortedCandidates()
	tail := a.latencyTail()
	latBound := maxLatency * slack
	feasible := func(c float64) bool {
		_, ok := a.probe(c*slack, tail, latBound)
		return ok
	}
	// Every candidate below lo is infeasible; hi is the smallest candidate
	// proven feasible (len(cands) until one is).
	lo, hi := 0, len(cands)
	for {
		top := len(cands) // cands[:top] lie strictly below the ceiling
		if ceiling != nil {
			top = sort.SearchFloat64s(cands, ceiling())
		}
		if hi < top {
			if lo == hi {
				break
			}
			mid := (lo + hi) / 2
			if feasible(cands[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
			continue
		}
		// Nothing below the ceiling is proven feasible yet: the largest
		// candidate under it decides whether anything there is.
		if lo >= top {
			if top == len(cands) {
				return Result{}, ErrInfeasible
			}
			return Result{}, ErrNotBelow
		}
		if feasible(cands[top-1]) {
			hi = top - 1
		} else {
			lo = top
		}
	}
	_, state, ok := a.run(objMinLatency, cands[hi]*slack, &latencyCut{tail: tail, bound: latBound})
	if !ok {
		return Result{}, fmt.Errorf("exact: bisection lost feasibility at %g", cands[hi])
	}
	return a.result(state)
}

// countedCeiling wraps a ceiling so that its reads are counted; nil stays
// nil.
func countedCeiling(ceil func() float64, reads *int) func() float64 {
	if ceil == nil {
		return nil
	}
	return func() float64 {
		*reads++
		return ceil()
	}
}

// sameBisection runs the solver and the sorted oracle under fresh copies
// of one ceiling (mk builds one; it may return nil) and reports the first
// difference: in the error, the mapping's bits, the ceiling reads, or the
// DP fills each ran. Equal fill counts prove the same probe sequence,
// since every probe and the final fill is one fill. It reads the
// package-wide fill counter, so its callers must not run in parallel.
func sameBisection(ev *mapping.Evaluator, lat float64, mk func() func() float64) error {
	var refReads, reads int
	before := dpRuns.Load()
	ref, refErr := sortedBisectMinPeriodBelow(ev, lat, countedCeiling(mk(), &refReads))
	refRuns := dpRuns.Load() - before
	before = dpRuns.Load()
	got, err := MinPeriodUnderLatencyBelow(ev, lat, countedCeiling(mk(), &reads))
	runs := dpRuns.Load() - before
	switch {
	case refErr != nil && !errors.Is(refErr, ErrInfeasible) && !errors.Is(refErr, ErrNotBelow):
		return fmt.Errorf("oracle: %v", refErr)
	case errors.Is(err, ErrInfeasible) != errors.Is(refErr, ErrInfeasible) ||
		errors.Is(err, ErrNotBelow) != errors.Is(refErr, ErrNotBelow) || (err == nil) != (refErr == nil):
		return fmt.Errorf("got (%+v, %v), oracle (%+v, %v)", got.Metrics, err, ref.Metrics, refErr)
	case err == nil && !sameOutcome(got, nil, ref, nil):
		return fmt.Errorf("got %+v %v, oracle %+v %v", got.Metrics, got.Mapping.Intervals(), ref.Metrics, ref.Mapping.Intervals())
	case reads != refReads:
		return fmt.Errorf("%d ceiling reads, oracle %d", reads, refReads)
	case runs != refRuns:
		return fmt.Errorf("%d DP fills, oracle %d", runs, refRuns)
	}
	return nil
}

// fixed returns a ceiling constructor that always reads c.
func fixed(c float64) func() func() float64 {
	return func() func() float64 { return fixedCeiling(c).Best }
}

// falling returns a ceiling constructor that reads +Inf for k polls and
// c after them, the way a race incumbent falls mid-solve.
func falling(k int, c float64) func() func() float64 {
	return func() func() float64 { return (&fallingCeiling{k: k, ceil: c}).Best }
}

// TestMinPeriodBelowMatchesSortedBisection pins the bisection on the
// candidates below the ceiling against the sorted oracle: E1–E4 at n = 5,
// 10, 20 and 40 on p = 10, plus random few-class platforms, at latency
// bounds 0.95, 1.2 and 1.8× the Lemma-1 latency (the first infeasible),
// each with no ceiling, a fixed ceiling at H5's period as the race polls
// it (the median candidate when H5 fails) or at the oracle's period, and
// ceilings that fall to those or to 0 after 1–3 polls. Every case must
// give the same mapping bits, the same error, the same ceiling reads and
// the same number of DP fills. It stays sequential: it reads the
// package-wide fill counter.
func TestMinPeriodBelowMatchesSortedBisection(t *testing.T) {
	type instance struct {
		name string
		ev   *mapping.Evaluator
	}
	var insts []instance
	for _, n := range []int{5, 10, 20, 40} {
		for fi, fam := range workload.Families() {
			ev := workload.Generate(workload.Config{Family: fam, Stages: n, Processors: 10, Seed: int64(3100 + 10*n + fi)}).Evaluator()
			insts = append(insts, instance{fmt.Sprintf("%v n=%d", fam, n), ev})
		}
	}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 12; i++ {
		ev := fewClassEvaluator(r, 2+r.Intn(11), 2+r.Intn(11), 1+r.Intn(4))
		insts = append(insts, instance{fmt.Sprintf("few-class %d", i), ev})
	}
	for _, x := range insts {
		a := acquireArena(x.ev)
		cands := a.sortedCandidates()
		median := cands[len(cands)/2]
		a.release()
		for _, factor := range []float64{0.95, 1.2, 1.8} {
			lat := x.ev.OptimalLatencyValue() * factor
			// H5's period, as the race polls it, or the median candidate
			// when H5 fails.
			race := median
			if h5, err := (heuristics.SpMonoL{}).MinimizePeriod(x.ev, lat); err == nil {
				race = h5.Metrics.Period
			}
			ceilings := map[string]func() func() float64{
				"none":           func() func() float64 { return nil },
				"race":           fixed(race),
				"falling-2-race": falling(2, race),
				"falling-1-zero": falling(1, 0),
			}
			if ref, err := sortedBisectMinPeriodBelow(x.ev, lat, nil); err == nil {
				p := ref.Metrics.Period
				ceilings["period"] = fixed(p)
				ceilings["falling-3-period"] = falling(3, p)
			}
			for name, mk := range ceilings {
				if err := sameBisection(x.ev, lat, mk); err != nil {
					t.Errorf("%s latency ×%g ceiling %s: %v", x.name, factor, name, err)
				}
			}
		}
	}
}

// FuzzMinPeriodBelow drives MinPeriodUnderLatencyBelow differentially
// against the sorted oracle. The inputs decode to an instance
// (fuzzEvaluator), a latency bound of lat/64 × the Lemma-1 latency, and
// a ceiling: none when ceil is 0, else a candidate (the (ceil/3)/86
// quantile of the sorted set) itself, the next float above it or below
// it (ceil%3), read after polls%8 reads of +Inf. The solver must give the oracle's error or
// mapping bits, with the same ceiling reads and DP fills. The seed
// corpus is testdata/fuzz/FuzzMinPeriodBelow.
func FuzzMinPeriodBelow(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape []byte, lat, ceil, polls uint8) {
		ev := fuzzEvaluator(shape)
		a := acquireArena(ev)
		cands := append([]float64(nil), a.sortedCandidates()...)
		a.release()
		mk := func() func() float64 { return nil }
		if ceil > 0 {
			c := cands[int(ceil/3)*len(cands)/86] // ceil/3 ≤ 85
			switch ceil % 3 {
			case 1:
				c = math.Nextafter(c, math.Inf(1))
			case 2:
				c = math.Nextafter(c, 0)
			}
			mk = falling(int(polls%8), c)
		}
		if err := sameBisection(ev, ev.OptimalLatencyValue()*float64(lat)/64, mk); err != nil {
			t.Fatal(err)
		}
	})
}
