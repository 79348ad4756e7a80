package exact

import (
	"fmt"
	"math"
	"sort"

	"pipesched/internal/mapping"
	"pipesched/internal/platform"
)

// This file preserves the original bitmask dynamic program over
// (prefix of stages, set of used processors). It is superseded by the
// speed-class-compressed engine in compressed.go — which explores a state
// space of ∏_k (c_k+1) instead of 2^p — but is kept as an independent
// oracle: the test-suite cross-checks the compressed solvers against it
// (and both against exhaustive enumeration) on instances with duplicated
// speeds. It lives in a test file so it never ships in consumer binaries.

// maxProcs is the processor cap of the bitmask dynamic program, which
// allocates O(2^p · n) state regardless of speed structure.
const maxProcs = 14

func legacyGuard(ev *mapping.Evaluator) error {
	if ev.Platform().Kind() != platform.CommHomogeneous {
		return fmt.Errorf("exact: legacy solver is defined on comm-homogeneous platforms")
	}
	if p := ev.Platform().Processors(); p > maxProcs {
		return fmt.Errorf("exact: platform has %d processors, legacy limit is %d", p, maxProcs)
	}
	return nil
}

// legacyDP runs the bitmask dynamic program. rank scores one interval
// (d..e on processor u) and combine folds interval scores along a mapping;
// minimising the fold yields min-period (max-combine of cycles) or
// min-latency (sum-combine of latency contributions). admissible rejects
// intervals violating a side constraint.
func legacyDP(ev *mapping.Evaluator,
	rank func(d, e, u int) float64,
	combine func(acc, x float64) float64,
	admissible func(d, e, u int) bool,
) (*mapping.Mapping, float64, error) {
	app, plat := ev.Pipeline(), ev.Platform()
	n, p := app.Stages(), plat.Processors()
	size := 1 << p
	f := make([][]float64, n+1)
	type choice struct {
		prev int // previous stage index
		proc int // 1-based processor of the last interval
	}
	back := make([][]choice, n+1)
	for i := range f {
		f[i] = make([]float64, size)
		back[i] = make([]choice, size)
		for s := range f[i] {
			f[i][s] = inf
		}
	}
	f[0][0] = 0
	for i := 1; i <= n; i++ {
		for S := 1; S < size; S++ {
			for u := 1; u <= p; u++ {
				bit := 1 << (u - 1)
				if S&bit == 0 {
					continue
				}
				prevSet := S &^ bit
				for k := 0; k < i; k++ {
					if f[k][prevSet] == inf {
						continue
					}
					d, e := k+1, i
					if !admissible(d, e, u) {
						continue
					}
					cand := combine(f[k][prevSet], rank(d, e, u))
					if cand < f[i][S] {
						f[i][S] = cand
						back[i][S] = choice{prev: k, proc: u}
					}
				}
			}
		}
	}
	best, bestS := inf, 0
	for S := 1; S < size; S++ {
		if f[n][S] < best {
			best, bestS = f[n][S], S
		}
	}
	if best == inf {
		return nil, 0, ErrInfeasible
	}
	var ivs []mapping.Interval
	i, S := n, bestS
	for i > 0 {
		c := back[i][S]
		ivs = append(ivs, mapping.Interval{Start: c.prev + 1, End: i, Proc: c.proc})
		S &^= 1 << (c.proc - 1)
		i = c.prev
	}
	for l, r := 0, len(ivs)-1; l < r; l, r = l+1, r-1 {
		ivs[l], ivs[r] = ivs[r], ivs[l]
	}
	m, err := mapping.New(app, plat, ivs)
	if err != nil {
		return nil, 0, fmt.Errorf("exact: reconstructed invalid mapping: %w", err)
	}
	return m, best, nil
}

func always(int, int, int) bool { return true }

func maxCombine(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func sumCombine(a, b float64) float64 { return a + b }

// latencyRank returns the latency contribution of one interval
// (the trailing δ_n/b term is a constant added afterwards).
func latencyRank(ev *mapping.Evaluator) func(d, e, u int) float64 {
	return func(d, e, u int) float64 {
		in, comp, _ := ev.CycleParts(d, e, u, 0, 0)
		return in + comp
	}
}

// legacyMinPeriod is MinPeriod on the bitmask DP.
func legacyMinPeriod(ev *mapping.Evaluator) (Result, error) {
	if err := legacyGuard(ev); err != nil {
		return Result{}, err
	}
	m, _, err := legacyDP(ev, ev.Cycle, maxCombine, always)
	if err != nil {
		return Result{}, err
	}
	return Result{Mapping: m, Metrics: ev.Metrics(m)}, nil
}

// legacyMinLatencyUnderPeriod is MinLatencyUnderPeriod on the bitmask DP.
func legacyMinLatencyUnderPeriod(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	if err := legacyGuard(ev); err != nil {
		return Result{}, err
	}
	adm := func(d, e, u int) bool { return ev.Cycle(d, e, u) <= maxPeriod*slack }
	m, _, err := legacyDP(ev, latencyRank(ev), sumCombine, adm)
	if err != nil {
		return Result{}, err
	}
	return Result{Mapping: m, Metrics: ev.Metrics(m)}, nil
}

// legacyMinPeriodUnderLatency is MinPeriodUnderLatency on the bitmask DP:
// it re-derives the O(n²·p) candidate bounds and re-runs the DP from
// scratch at every probe, exactly as the original solver did.
func legacyMinPeriodUnderLatency(ev *mapping.Evaluator, maxLatency float64) (Result, error) {
	if err := legacyGuard(ev); err != nil {
		return Result{}, err
	}
	app, plat := ev.Pipeline(), ev.Platform()
	n, p := app.Stages(), plat.Processors()
	cands := make([]float64, 0, n*n*p/2)
	for d := 1; d <= n; d++ {
		for e := d; e <= n; e++ {
			for u := 1; u <= p; u++ {
				cands = append(cands, ev.Cycle(d, e, u))
			}
		}
	}
	sort.Float64s(cands)
	feasibleAt := func(period float64) (Result, bool) {
		res, err := legacyMinLatencyUnderPeriod(ev, period)
		if err != nil {
			return Result{}, false
		}
		return res, res.Metrics.Latency <= maxLatency*slack
	}
	lo, hi := 0, len(cands)-1
	if _, ok := feasibleAt(cands[hi]); !ok {
		return Result{}, ErrInfeasible
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := feasibleAt(cands[mid]); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	res, ok := feasibleAt(cands[lo])
	if !ok {
		return Result{}, fmt.Errorf("exact: bisection lost feasibility at %g", cands[lo])
	}
	return res, nil
}

// legacyParetoFront is ParetoFront on the bitmask DP, probing every
// candidate bound with a fresh solve.
func legacyParetoFront(ev *mapping.Evaluator) ([]ParetoPoint, error) {
	if err := legacyGuard(ev); err != nil {
		return nil, err
	}
	app, plat := ev.Pipeline(), ev.Platform()
	n, p := app.Stages(), plat.Processors()
	cands := make([]float64, 0, n*n*p/2)
	for d := 1; d <= n; d++ {
		for e := d; e <= n; e++ {
			for u := 1; u <= p; u++ {
				cands = append(cands, ev.Cycle(d, e, u))
			}
		}
	}
	sort.Float64s(cands)
	var points []ParetoPoint
	prevLatency := math.Inf(1)
	for _, c := range cands {
		res, err := legacyMinLatencyUnderPeriod(ev, c)
		if err != nil {
			continue // period bound below every feasible mapping
		}
		if res.Metrics.Latency < prevLatency-1e-12 {
			points = append(points, ParetoPoint{Metrics: res.Metrics, Mapping: res.Mapping})
			prevLatency = res.Metrics.Latency
		}
	}
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i].Metrics, points[j].Metrics
		if a.Period != b.Period {
			return a.Period < b.Period
		}
		return a.Latency < b.Latency
	})
	var front []ParetoPoint
	bestLatency := math.Inf(1)
	for _, pt := range points {
		if pt.Metrics.Latency < bestLatency-1e-12 {
			front = append(front, pt)
			bestLatency = pt.Metrics.Latency
		}
	}
	return front, nil
}
