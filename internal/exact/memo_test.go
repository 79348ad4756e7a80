package exact

import (
	"math/rand"
	"reflect"
	"testing"

	"pipesched/internal/mapping"
)

// TestSaturatedMemoBitIdentity pins the saturated-bound memo: once a
// period bound reaches the largest entry of the cycle table, the bound
// can never reject a candidate, so every such bound must return the
// exact result a fresh computation would — across repeats, across
// different saturated bounds, and after interleaved runs that overwrite
// the table and force the memo to invalidate and rebuild.
func TestSaturatedMemoBitIdentity(t *testing.T) {
	type outcome struct {
		period, latency float64
		ivs             []mapping.Interval
	}
	capture := func(res Result, err error) outcome {
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return outcome{res.Metrics.Period, res.Metrics.Latency, res.Mapping.Intervals()}
	}
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(900 + seed))
		n := 3 + r.Intn(5)
		classes := 2 + r.Intn(2)
		p := classes * (2 + r.Intn(3))
		ev := fewClassEvaluator(r, n, p, classes)

		// A bound at the top of the candidate ladder saturates the check;
		// so does anything above it.
		maxCand := 0.0
		a := acquireArena(ev)
		for _, c := range a.candidates() {
			if c > maxCand {
				maxCand = c
			}
		}
		a.release()

		before := ReadStats().MemoHits
		ref := capture(MinLatencyUnderPeriod(ev, maxCand))
		for i, bound := range []float64{maxCand, maxCand * 2, 1e9, maxCand} {
			got := capture(MinLatencyUnderPeriod(ev, bound))
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d bound[%d]=%g: memoized %+v != reference %+v", seed, i, bound, got, ref)
			}
		}
		// Under -race sync.Pool drops entries at random, so a repeat may
		// get a fresh arena: there the saturated call repeats, up to 64
		// more times, until one lands on the pooled arena.
		for extra := 0; raceEnabled && extra < 64 && ReadStats().MemoHits == before; extra++ {
			if got := capture(MinLatencyUnderPeriod(ev, maxCand)); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d repeat %d: memoized %+v != reference %+v", seed, extra, got, ref)
			}
		}
		if hits := ReadStats().MemoHits; hits == before {
			t.Fatalf("seed %d: saturated repeats never hit the memo", seed)
		}
		// A held arena must hit on every saturated rerun.
		a = acquireArena(ev)
		a.run(objMinLatency, maxCand*slack, nil)
		before = ReadStats().MemoHits
		if a.run(objMinLatency, maxCand*2, nil); ReadStats().MemoHits == before {
			t.Fatalf("seed %d: a saturated rerun on a held arena missed the memo", seed)
		}
		a.release()

		// Interleave runs that overwrite the table: the memo must drop and
		// the recomputation must land on the same answer.
		if _, err := MinPeriod(ev); err != nil {
			t.Fatalf("seed %d: MinPeriod: %v", seed, err)
		}
		if got := capture(MinLatencyUnderPeriod(ev, maxCand)); !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed %d after MinPeriod: %+v != %+v", seed, got, ref)
		}
		tight := capture(MinLatencyUnderPeriod(ev, ref.period))
		_ = tight
		if got := capture(MinLatencyUnderPeriod(ev, 1e12)); !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed %d after tight-bound run: %+v != %+v", seed, got, ref)
		}
	}
}
