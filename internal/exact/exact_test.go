package exact

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

func randEvaluator(r *rand.Rand, maxN, maxP int) *mapping.Evaluator {
	n := 1 + r.Intn(maxN)
	p := 1 + r.Intn(maxP)
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
		speeds[i] = float64(1 + r.Intn(20))
	}
	return mapping.NewEvaluator(pipeline.MustNew(works, deltas), platform.MustNew(speeds, 10))
}

func TestMinPeriodKnownInstance(t *testing.T) {
	// Zero communications, works {3,1,4,1,5}, speeds {2,1}: this is the
	// heterogeneous chains problem. Best: {3,1,4}/2 = 4 and {1,5}/1 = 6
	// → 6? or {3,1,4,1}/2 = 4.5, {5}/1 = 5 → 5. Optimum is 5.
	app := pipeline.MustNew([]float64{3, 1, 4, 1, 5}, make([]float64, 6))
	plat := platform.MustNew([]float64{2, 1}, 1)
	ev := mapping.NewEvaluator(app, plat)
	res, err := MinPeriod(ev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.Period-5) > 1e-9 {
		t.Errorf("MinPeriod = %g, want 5 (mapping %v)", res.Metrics.Period, res.Mapping)
	}
}

func TestMinPeriodMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := randEvaluator(r, 6, 4)
		dp, err := MinPeriod(ev)
		if err != nil {
			return false
		}
		brute := bruteMinPeriod(ev)
		if math.Abs(dp.Metrics.Period-brute.Metrics.Period) > 1e-9 {
			return false
		}
		// The returned mapping must actually realise the claimed period.
		return math.Abs(ev.Period(dp.Mapping)-dp.Metrics.Period) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMinLatencyUnderPeriodMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := randEvaluator(r, 6, 4)
		// Pick a period bound between min and max interesting values.
		minRes, err := MinPeriod(ev)
		if err != nil {
			return false
		}
		_, optLat := ev.OptimalLatency()
		single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
		maxP := ev.Period(single)
		bound := minRes.Metrics.Period + r.Float64()*(maxP-minRes.Metrics.Period)

		res, err := MinLatencyUnderPeriod(ev, bound)
		if err != nil {
			return false // bound ≥ min period, must be feasible
		}
		if res.Metrics.Period > bound*(1+1e-9) {
			return false
		}
		if res.Metrics.Latency < optLat-1e-9 {
			return false // below the latency lower bound: impossible
		}
		// Brute-force check.
		best := math.Inf(1)
		enumerate(ev, func(m *mapping.Mapping) {
			met := ev.Metrics(m)
			if met.Period <= bound*(1+1e-12) && met.Latency < best {
				best = met.Latency
			}
		})
		return math.Abs(best-res.Metrics.Latency) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinLatencyUnderPeriodInfeasible(t *testing.T) {
	app := pipeline.MustNew([]float64{10}, []float64{0, 0})
	plat := platform.MustNew([]float64{2}, 1)
	ev := mapping.NewEvaluator(app, plat)
	// Min possible period is 5; bound 4 must be infeasible.
	if _, err := MinLatencyUnderPeriod(ev, 4); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestMinPeriodUnderLatency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := randEvaluator(r, 6, 4)
		_, optLat := ev.OptimalLatency()
		// A generous latency bound recovers the global min period.
		global, err := MinPeriod(ev)
		if err != nil {
			return false
		}
		loose, err := MinPeriodUnderLatency(ev, optLat*10+100)
		if err != nil {
			return false
		}
		if loose.Metrics.Period > global.Metrics.Period*(1+1e-9) {
			return false
		}
		// The tightest bound (optimal latency) is feasible and yields
		// exactly the single-processor mapping's period or better.
		tight, err := MinPeriodUnderLatency(ev, optLat)
		if err != nil {
			return false
		}
		return tight.Metrics.Latency <= optLat*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMinPeriodUnderLatencyInfeasible(t *testing.T) {
	app := pipeline.MustNew([]float64{10}, []float64{0, 0})
	plat := platform.MustNew([]float64{2}, 1)
	ev := mapping.NewEvaluator(app, plat)
	if _, err := MinPeriodUnderLatency(ev, 4.9); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestMinPeriodUnderLatencyBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := randEvaluator(r, 5, 3)
		_, optLat := ev.OptimalLatency()
		bound := optLat * (1 + r.Float64())
		res, err := MinPeriodUnderLatency(ev, bound)
		if err != nil {
			return false
		}
		best := math.Inf(1)
		enumerate(ev, func(m *mapping.Mapping) {
			met := ev.Metrics(m)
			if met.Latency <= bound*(1+1e-12) && met.Period < best {
				best = met.Period
			}
		})
		return math.Abs(best-res.Metrics.Period) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParetoFrontProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := randEvaluator(r, 5, 3)
		front, err := ParetoFront(ev)
		if err != nil || len(front) == 0 {
			return false
		}
		// Sorted by increasing period, strictly decreasing latency,
		// mutually non-dominated.
		for i := 1; i < len(front); i++ {
			if front[i].Metrics.Period < front[i-1].Metrics.Period {
				return false
			}
			if front[i].Metrics.Latency >= front[i-1].Metrics.Latency {
				return false
			}
		}
		// Endpoints: the lowest-period point matches MinPeriod and the
		// lowest-latency point matches the optimal latency.
		mp, err := MinPeriod(ev)
		if err != nil {
			return false
		}
		if math.Abs(front[0].Metrics.Period-mp.Metrics.Period) > 1e-9 {
			return false
		}
		_, optLat := ev.OptimalLatency()
		last := front[len(front)-1]
		if math.Abs(last.Metrics.Latency-optLat) > 1e-9 {
			return false
		}
		// No enumerated mapping dominates any front point.
		ok := true
		enumerate(ev, func(m *mapping.Mapping) {
			met := ev.Metrics(m)
			for _, pt := range front {
				if met.Dominates(pt.Metrics) {
					// Allow float-level ties.
					if pt.Metrics.Period-met.Period > 1e-9 || pt.Metrics.Latency-met.Latency > 1e-9 {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGuardRejectsLargeStateSpaces(t *testing.T) {
	// 17 processors of pairwise-distinct speeds compress to nothing:
	// 2^17 states exceed MaxStates.
	speeds := make([]float64, 17)
	for i := range speeds {
		speeds[i] = float64(i + 1)
	}
	plat := platform.MustNew(speeds, 1)
	if Eligible(plat) {
		t.Error("Eligible accepted a 2^17-state platform")
	}
	ev := mapping.NewEvaluator(pipeline.MustNew([]float64{1}, []float64{0, 0}), plat)
	if _, err := MinPeriod(ev); err == nil {
		t.Error("MinPeriod accepted an oversized platform")
	}
	if _, err := MinLatencyUnderPeriod(ev, 10); err == nil {
		t.Error("MinLatencyUnderPeriod accepted an oversized platform")
	}
	if _, err := MinPeriodUnderLatency(ev, 10); err == nil {
		t.Error("MinPeriodUnderLatency accepted an oversized platform")
	}
	if _, err := ParetoFront(ev); err == nil {
		t.Error("ParetoFront accepted an oversized platform")
	}
}

func TestGuardKeyedOnClassesNotProcessors(t *testing.T) {
	// The same 17 processors all at speed 1 compress to 18 states: the
	// raw processor count no longer matters, only the class structure.
	// This platform was rejected outright under the old 14-processor gate.
	speeds := make([]float64, 17)
	for i := range speeds {
		speeds[i] = 1
	}
	plat := platform.MustNew(speeds, 1)
	if !Eligible(plat) {
		t.Fatal("Eligible rejected a homogeneous 17-processor platform")
	}
	ev := mapping.NewEvaluator(pipeline.MustNew([]float64{2, 3}, []float64{1, 1, 1}), plat)
	if _, err := MinPeriod(ev); err != nil {
		t.Errorf("MinPeriod on a homogeneous 17-processor platform: %v", err)
	}
}

func TestGuardRejectsHeterogeneousPlatform(t *testing.T) {
	plat, err := platform.NewFullyHeterogeneous([]float64{1, 1}, [][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ev := mapping.NewEvaluator(pipeline.MustNew([]float64{1}, []float64{0, 0}), plat)
	if _, err := MinPeriod(ev); err == nil {
		t.Error("MinPeriod accepted a fully heterogeneous platform")
	}
}

// Theorem 2 consistency: with zero communications the exact min period
// must coincide with the exact heterogeneous chains-to-chains bottleneck.
func TestMinPeriodReducesToHeteroChains(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		p := 1 + r.Intn(4)
		works := make([]float64, n)
		for i := range works {
			works[i] = float64(1 + r.Intn(20))
		}
		speeds := make([]float64, p)
		for i := range speeds {
			speeds[i] = float64(1 + r.Intn(20))
		}
		ev := mapping.NewEvaluator(
			pipeline.MustNew(works, make([]float64, n+1)),
			platform.MustNew(speeds, 1))
		res, err := MinPeriod(ev)
		if err != nil {
			return false
		}
		// Brute-force the chains objective directly.
		best := math.Inf(1)
		var rec func(start int, used uint32, cur float64)
		rec = func(start int, used uint32, cur float64) {
			if start == n {
				if cur < best {
					best = cur
				}
				return
			}
			sum := 0.0
			for end := start + 1; end <= n; end++ {
				sum += works[end-1]
				for u := 0; u < p; u++ {
					if used&(1<<u) != 0 {
						continue
					}
					m := cur
					if v := sum / speeds[u]; v > m {
						m = v
					}
					if m < best {
						rec(end, used|1<<u, m)
					}
				}
			}
		}
		rec(0, 0, 0)
		return math.Abs(res.Metrics.Period-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// enumerate calls fn for every valid interval mapping (exhaustive;
// exponential — use on tiny instances only). The used set is a slice, not
// a bitmask, so platforms beyond 32 processors — which the class-keyed
// gate can admit — enumerate correctly.
func enumerate(ev *mapping.Evaluator, fn func(*mapping.Mapping)) {
	app, plat := ev.Pipeline(), ev.Platform()
	n, p := app.Stages(), plat.Processors()
	used := make([]bool, p+1)
	var rec func(start int, acc []mapping.Interval)
	rec = func(start int, acc []mapping.Interval) {
		if start > n {
			m, err := mapping.New(app, plat, acc)
			if err != nil {
				panic(err)
			}
			fn(m)
			return
		}
		if len(acc) == p {
			return
		}
		for end := start; end <= n; end++ {
			for u := 1; u <= p; u++ {
				if used[u] {
					continue
				}
				used[u] = true
				rec(end+1, append(acc, mapping.Interval{Start: start, End: end, Proc: u}))
				used[u] = false
			}
		}
	}
	rec(1, nil)
}

// bruteMinPeriod computes the minimum period by exhaustive enumeration —
// an independent oracle for MinPeriod in tests.
func bruteMinPeriod(ev *mapping.Evaluator) Result {
	var best Result
	found := false
	enumerate(ev, func(m *mapping.Mapping) {
		met := ev.Metrics(m)
		if !found || met.Period < best.Metrics.Period {
			best = Result{Mapping: m, Metrics: met}
			found = true
		}
	})
	if !found {
		panic("exact: enumeration produced no mapping")
	}
	return best
}

// enumerate historically tracked used processors in a uint32 bitmask,
// which silently overflowed at p ≥ 32 — platform sizes the class-keyed
// gate now admits. Lock the slice-based fix with a wide platform.
func TestEnumerateBeyond32Processors(t *testing.T) {
	speeds := make([]float64, 33)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[32] = 2 // the fastest (and last) processor must be reachable
	ev := mapping.NewEvaluator(
		pipeline.MustNew([]float64{6, 4}, []float64{0, 0, 0}),
		platform.MustNew(speeds, 1))
	count := 0
	enumerate(ev, func(*mapping.Mapping) { count++ })
	// 33 single-interval mappings plus 33·32 two-interval splits.
	if want := 33 + 33*32; count != want {
		t.Fatalf("enumerate produced %d mappings, want %d", count, want)
	}
	brute := bruteMinPeriod(ev)
	res, err := MinPeriod(ev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Period != brute.Metrics.Period {
		t.Fatalf("MinPeriod %v != brute %v", res.Metrics.Period, brute.Metrics.Period)
	}
}
