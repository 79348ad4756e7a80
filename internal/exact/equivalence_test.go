package exact

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

// dupSpeedEvaluator draws an instance whose processor speeds repeat on
// purpose: at most maxClasses distinct values over up to maxP processors,
// so the compressed DP genuinely exercises multi-member classes.
func dupSpeedEvaluator(r *rand.Rand, maxN, maxP, maxClasses int) *mapping.Evaluator {
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
	classes := 1 + r.Intn(maxClasses)
	pool := make([]float64, classes)
	for i := range pool {
		pool[i] = float64(1 + r.Intn(20))
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = pool[r.Intn(classes)]
	}
	return mapping.NewEvaluator(pipeline.MustNew(works, deltas), platform.MustNew(speeds, 10))
}

// The central equivalence property of the compressed engine: on instances
// with duplicated speeds, the compressed DP, the legacy bitmask DP and
// exhaustive enumeration must agree on every solver entry point. Objective
// values are compared for exact equality — the compressed DP minimises
// over the same multiset of bit-identical interval costs as the bitmask
// formulation, so there is no tolerance to grant.
func TestCompressedMatchesLegacyAndBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := dupSpeedEvaluator(r, 6, 5, 3)

		// MinPeriod: compressed ≡ legacy ≡ brute.
		comp, err := MinPeriod(ev)
		if err != nil {
			return false
		}
		leg, err := legacyMinPeriod(ev)
		if err != nil {
			return false
		}
		if comp.Metrics.Period != leg.Metrics.Period {
			t.Logf("seed %d: MinPeriod compressed %v != legacy %v", seed, comp.Metrics.Period, leg.Metrics.Period)
			return false
		}
		brute := bruteMinPeriod(ev)
		if math.Abs(comp.Metrics.Period-brute.Metrics.Period) > 1e-9 {
			return false
		}
		// The witness mapping must realise the claimed metrics.
		if ev.Period(comp.Mapping) != comp.Metrics.Period {
			return false
		}

		// MinLatencyUnderPeriod at a random bound between the optimum and
		// the single-processor period.
		single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
		maxP := ev.Period(single)
		bound := comp.Metrics.Period + r.Float64()*(maxP-comp.Metrics.Period)
		compL, errC := MinLatencyUnderPeriod(ev, bound)
		legL, errL := legacyMinLatencyUnderPeriod(ev, bound)
		if (errC == nil) != (errL == nil) {
			return false
		}
		if errC == nil {
			if compL.Metrics.Latency != legL.Metrics.Latency {
				t.Logf("seed %d: MinLatencyUnderPeriod compressed %v != legacy %v",
					seed, compL.Metrics.Latency, legL.Metrics.Latency)
				return false
			}
			best := math.Inf(1)
			enumerate(ev, func(m *mapping.Mapping) {
				met := ev.Metrics(m)
				if met.Period <= bound*(1+1e-12) && met.Latency < best {
					best = met.Latency
				}
			})
			if math.Abs(best-compL.Metrics.Latency) > 1e-9 {
				return false
			}
		}

		// MinPeriodUnderLatency at a random bound above the optimum.
		_, optLat := ev.OptimalLatency()
		latBound := optLat * (1 + r.Float64())
		compP, errC := MinPeriodUnderLatency(ev, latBound)
		legP, errL := legacyMinPeriodUnderLatency(ev, latBound)
		if (errC == nil) != (errL == nil) {
			return false
		}
		if errC == nil && compP.Metrics.Period != legP.Metrics.Period {
			t.Logf("seed %d: MinPeriodUnderLatency compressed %v != legacy %v",
				seed, compP.Metrics.Period, legP.Metrics.Period)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The Pareto fronts of the two engines must coincide point for point.
func TestCompressedParetoFrontMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := dupSpeedEvaluator(r, 5, 4, 2)
		comp, err := ParetoFront(ev)
		if err != nil {
			return false
		}
		leg, err := legacyParetoFront(ev)
		if err != nil {
			return false
		}
		if len(comp) != len(leg) {
			t.Logf("seed %d: front sizes %d vs %d", seed, len(comp), len(leg))
			return false
		}
		for i := range comp {
			if comp[i].Metrics.Period != leg[i].Metrics.Period ||
				comp[i].Metrics.Latency != leg[i].Metrics.Latency {
				t.Logf("seed %d: point %d: %+v vs %+v", seed, i, comp[i].Metrics, leg[i].Metrics)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A platform beyond the legacy 14-processor ceiling but with few speed
// classes must now solve exactly — and still agree with brute-force
// enumeration on a short pipeline.
func TestExactSolveBeyondLegacyProcessorCeiling(t *testing.T) {
	speeds := make([]float64, 20) // p = 20 > 14, 4 speed classes of 5
	for i := range speeds {
		speeds[i] = float64(1 + i%4)
	}
	plat := platform.MustNew(speeds, 10)
	if got, want := plat.ClassStateSpace(), 6*6*6*6; got != want {
		t.Fatalf("ClassStateSpace = %d, want %d", got, want)
	}
	if !Eligible(plat) {
		t.Fatal("20-processor 4-class platform should be Eligible")
	}
	if err := legacyGuard(mapping.NewEvaluator(pipeline.MustNew([]float64{1}, []float64{0, 0}), plat)); err == nil {
		t.Fatal("legacy guard should reject 20 processors")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		works := make([]float64, n)
		for i := range works {
			works[i] = float64(1 + r.Intn(50))
		}
		deltas := make([]float64, n+1)
		for i := range deltas {
			deltas[i] = float64(r.Intn(20))
		}
		ev := mapping.NewEvaluator(pipeline.MustNew(works, deltas), plat)
		res, err := MinPeriod(ev)
		if err != nil {
			return false
		}
		brute := bruteMinPeriod(ev)
		return math.Abs(res.Metrics.Period-brute.Metrics.Period) < 1e-9 &&
			ev.Period(res.Mapping) == res.Metrics.Period
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// The pooled arenas must be safe to use from many goroutines at once:
// concurrent solves on one shared evaluator all reach the same optimum.
// Run under -race in CI.
func TestPooledArenaConcurrentSolves(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ev := dupSpeedEvaluator(r, 6, 6, 3)
	want, err := MinPeriod(ev)
	if err != nil {
		t.Fatal(err)
	}
	front, err := ParetoFront(ev)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := MinPeriod(ev)
				if err != nil {
					errs <- err
					return
				}
				if res.Metrics.Period != want.Metrics.Period {
					t.Errorf("concurrent MinPeriod %v, want %v", res.Metrics.Period, want.Metrics.Period)
					return
				}
				pf, err := ParetoFront(ev)
				if err != nil {
					errs <- err
					return
				}
				if len(pf) != len(front) {
					t.Errorf("concurrent ParetoFront size %d, want %d", len(pf), len(front))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
