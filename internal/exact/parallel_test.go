package exact

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

// fewClassEvaluator builds an instance whose platform has exactly
// `classes` speed classes of roughly p/classes members each — the shape
// where the compressed state space grows large enough for the wave
// runner to engage.
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

// TestParallelTableBitIdentity pins the wave runner at the strongest
// possible level: the entire DP table — every value cell, bit for bit,
// and every backpointer of a reachable cell — must match the serial
// runner's, for both objectives and any worker count. Mapping-level
// identity follows a fortiori.
func TestParallelTableBitIdentity(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		classes := 2 + r.Intn(2)
		p := classes * (2 + r.Intn(3))
		ev := fewClassEvaluator(r, n, p, classes)
		a := acquireArena(ev)

		bound := 0.0
		for _, c := range a.candidates() {
			if c > bound {
				bound = c
			}
		}
		cases := []struct {
			obj   objective
			bound float64
		}{
			{objMinPeriod, 0},
			{objMinLatency, bound * slack},
			{objMinLatency, a.candidates()[len(a.candidates())/2] * slack},
		}
		for ci, c := range cases {
			sv, sstate, sok := a.runSerial(c.obj, c.bound, nil)
			sf := append([]float64(nil), a.f...)
			sback := append([]int32(nil), a.back...)
			for workers := 2; workers <= 4; workers++ {
				pv, pstate, pok := a.runParallel(c.obj, c.bound, nil, workers)
				if sv != pv || sstate != pstate || sok != pok {
					t.Fatalf("seed %d case %d workers %d: serial (%g,%d,%v) != parallel (%g,%d,%v)",
						seed, ci, workers, sv, sstate, sok, pv, pstate, pok)
				}
				for i, v := range a.f {
					if math.Float64bits(v) != math.Float64bits(sf[i]) {
						t.Fatalf("seed %d case %d workers %d: f[%d] = %g, serial %g", seed, ci, workers, i, v, sf[i])
					}
					if v < inf && a.back[i] != sback[i] {
						t.Fatalf("seed %d case %d workers %d: back[%d] = %d, serial %d", seed, ci, workers, i, a.back[i], sback[i])
					}
				}
			}
		}
		a.release()
	}
}

// withThreshold runs fn with ParallelStateThreshold overridden. The
// package's tests run sequentially, so the global swap is safe.
func withThreshold(threshold int, fn func()) {
	old := ParallelStateThreshold
	ParallelStateThreshold = threshold
	defer func() { ParallelStateThreshold = old }()
	fn()
}

// TestParallelSolversBitIdentical forces every solver end to end through
// both schedules and requires bit-identical metrics and interval-equal
// mappings — the parallel DP must be invisible to callers.
func TestParallelSolversBitIdentical(t *testing.T) {
	type outcome struct {
		period, latency float64
		ivs             []mapping.Interval
		err             bool
	}
	capture := func(res Result, err error) outcome {
		if err != nil {
			return outcome{err: true}
		}
		return outcome{res.Metrics.Period, res.Metrics.Latency, res.Mapping.Intervals(), false}
	}
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		n := 3 + r.Intn(5)
		classes := 2 + r.Intn(2)
		p := classes * (2 + r.Intn(3))
		ev := fewClassEvaluator(r, n, p, classes)

		base, err := MinPeriod(ev)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		budgetLat := base.Metrics.Latency
		budgetPer := base.Metrics.Period * 1.2

		var serial, par [4]outcome
		run := func(out *[4]outcome) {
			out[0] = capture(MinPeriod(ev))
			out[1] = capture(MinLatencyUnderPeriod(ev, budgetPer))
			out[2] = capture(MinPeriodUnderLatency(ev, budgetLat))
			front, ferr := ParetoFront(ev)
			if ferr != nil {
				out[3] = outcome{err: true}
			} else {
				var ivs []mapping.Interval
				for _, pt := range front {
					ivs = append(ivs, pt.Mapping.Intervals()...)
				}
				out[3] = outcome{float64(len(front)), 0, ivs, false}
			}
		}
		withThreshold(1<<30, func() { run(&serial) })
		withThreshold(1, func() { run(&par) })
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Errorf("seed %d solver %d: serial %+v != parallel %+v", seed, i, serial[i], par[i])
			}
		}
	}
}

// TestParallelEngagesAboveDefaultThreshold checks a genuinely large
// instance crosses the default threshold, engages the wave runner (via
// the stats counters) and still matches the forced-serial answer.
func TestParallelEngagesAboveDefaultThreshold(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-proc runtime never engages the wave runner")
	}
	r := rand.New(rand.NewSource(7))
	ev := fewClassEvaluator(r, 8, 32, 4) // 9^4 = 6561 states > default 4096
	if got := ev.Platform().ClassStateSpace(); got < ParallelStateThreshold {
		t.Fatalf("test instance has %d states, below threshold %d", got, ParallelStateThreshold)
	}
	var serialRes Result
	var serr error
	withThreshold(1<<30, func() { serialRes, serr = MinPeriod(ev) })
	before := ReadStats()
	pres, perr := MinPeriod(ev)
	after := ReadStats()
	if serr != nil || perr != nil {
		t.Fatalf("solve errors: %v / %v", serr, perr)
	}
	if after.ParallelRuns <= before.ParallelRuns {
		t.Fatal("default-threshold solve did not engage the parallel runner")
	}
	if after.Strata <= before.Strata {
		t.Fatal("parallel engagement recorded no strata")
	}
	if math.Float64bits(serialRes.Metrics.Period) != math.Float64bits(pres.Metrics.Period) ||
		!reflect.DeepEqual(serialRes.Mapping.Intervals(), pres.Mapping.Intervals()) {
		t.Fatalf("parallel result diverged: %+v vs %+v", pres.Metrics, serialRes.Metrics)
	}
}
