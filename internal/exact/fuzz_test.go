package exact

import (
	"math"
	"reflect"
	"testing"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

// fuzzEvaluator decodes shape into a small instance: n ≤ 12 stages, p ≤ 10
// processors whose speeds are drawn from at most 4 values, so classes
// repeat and the compressed state space has room to prune. Bytes past the
// end of shape read as 0, so every input decodes.
func fuzzEvaluator(shape []byte) *mapping.Evaluator {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(b)
	}
	n, p, k := 1+next()%12, 1+next()%10, 1+next()%4
	classSpeeds := make([]float64, k)
	for i := range classSpeeds {
		classSpeeds[i] = float64(1 + next()%20)
	}
	works := make([]float64, n)
	for i := range works {
		works[i] = float64(1 + next()%20)
	}
	deltas := make([]float64, n+1)
	for i := range deltas {
		deltas[i] = float64(next() % 30)
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = classSpeeds[next()%k]
	}
	return mapping.NewEvaluator(pipeline.MustNew(works, deltas), platform.MustNew(speeds, 10))
}

// FuzzCutFill drives the latency kernel differentially against the dense
// oracle. The inputs decode to an instance (fuzzEvaluator), a candidate
// period bound (cand indexes the candidate set) and a latency cut: +Inf
// (cut 0), the dense optimum (1), one ulp below (2) or above (3) it, or
// cut/64 × the Lemma-1 latency. The cut fill must return the oracle's
// value bits, winning state and intervals when the optimum is within the
// cut, and nothing otherwise; the uncut fill must return the oracle's
// answer; and the probe must answer the full fill's predicate. The seed
// corpus is testdata/fuzz/FuzzCutFill.
func FuzzCutFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape []byte, cand uint16, cut uint8) {
		ev := fuzzEvaluator(shape)
		a := acquireArena(ev)
		defer a.release()
		cands := a.sortedCandidates()
		bound := cands[int(cand)%len(cands)] * slack
		tail := a.latencyTail()
		v, state, ok := a.denseLatencyFill(bound)
		var want []mapping.Interval
		if ok {
			want = append(want, a.reconstruct(state)...)
		}
		L := math.Inf(1)
		switch opt := v + tail; {
		case cut >= 4:
			L = ev.OptimalLatencyValue() * float64(cut) / 64
		case !ok || cut == 0:
		case cut == 1:
			L = opt
		case cut == 2:
			L = math.Nextafter(opt, 0)
		default:
			L = math.Nextafter(opt, math.Inf(1))
		}
		check := func(label string, L, cv float64, cstate int, cok bool) {
			if wantOK := ok && v+tail <= L; cok != wantOK {
				t.Fatalf("%s at candidate %g cut %v: fill ok %v, dense %v (optimum %v)", label, bound, L, cok, wantOK, v+tail)
			}
			if cok && (math.Float64bits(cv) != math.Float64bits(v) || cstate != state ||
				!reflect.DeepEqual(a.reconstruct(cstate), want)) {
				t.Fatalf("%s at candidate %g cut %v: (%v, %d) != dense (%v, %d)", label, bound, L, cv, cstate, v, state)
			}
		}
		cv, cstate, cok := a.run(objMinLatency, bound, &latencyCut{tail: tail, bound: L})
		check("cut fill", L, cv, cstate, cok)
		cv, cstate, cok = a.run(objMinLatency, bound, nil)
		check("uncut fill", math.Inf(1), cv, cstate, cok)
		found, got := a.probe(bound, tail, L)
		if want := ok && v+tail <= L; got != want {
			t.Fatalf("probe at candidate %g cut %v: %v, full fill %v", bound, L, got, want)
		}
		if got && (found > L || found < v+tail) {
			t.Fatalf("probe at candidate %g cut %v: found %v, outside [%v, %v]", bound, L, found, v+tail, L)
		}
	})
}
