package portfolio

import (
	"context"
	"testing"

	"pipesched/internal/lowerbound"
	"pipesched/internal/workload"
)

// TestFallbackIdenticalAcrossThreshold pins the race to the reference
// oracle on a 140-cell instance racing the DP and a 1200-cell
// heuristics-only one, in both objectives.
func TestFallbackIdenticalAcrossThreshold(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name          string
		stages, procs int
		seed          int64
		exact         bool
	}{
		{"below-threshold", 14, 10, 47, true},
		{"above-threshold", 30, 40, 53, false}, // heuristics only: keep the big one fast
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := workload.Generate(workload.Config{Family: workload.E2, Stages: tc.stages, Processors: tc.procs, Seed: tc.seed}).Evaluator()
			bound := lowerbound.Period(ev) * 1.5
			opts := SolveOptions{Exact: tc.exact}
			ref, rfound, _ := referenceUnderPeriod(ev, bound, opts)
			got, found, _ := UnderPeriod(ctx, ev, bound, opts)
			if rfound != found {
				t.Fatalf("found: reference %v, race %v", rfound, found)
			}
			if rfound && (ref.Solver != got.Solver || ref.Result.Metrics != got.Result.Metrics) {
				t.Fatalf("reference (%s %+v) != race (%s %+v)", ref.Solver, ref.Result.Metrics, got.Solver, got.Result.Metrics)
			}
			latBound := ref.Result.Metrics.Latency * 1.2
			refL, rf, _ := referenceUnderLatency(ev, latBound, opts)
			gotL, f, _ := UnderLatency(ctx, ev, latBound, opts)
			if rf != f || (rf && (refL.Solver != gotL.Solver || refL.Result.Metrics != gotL.Result.Metrics)) {
				t.Fatalf("UnderLatency diverged: reference (%v %s) race (%v %s)", rf, refL.Solver, f, gotL.Solver)
			}
		})
	}
}

// TestMapInlineSingleWorker pins the inline lane: one worker must keep
// Map's ordering and cancellation contract without goroutine fan-out.
func TestMapInlineSingleWorker(t *testing.T) {
	in := []int{10, 20, 30, 40}
	out, err := Map(context.Background(), 1, in, func(_ context.Context, v int) int { return v + 1 })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != in[i]+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Cancellation mid-walk: elements after the cancel stay zero.
	ctx, cancel := context.WithCancel(context.Background())
	out, err = MapIndexed(ctx, 1, in, func(_ context.Context, i, v int) int {
		if i == 1 {
			cancel()
		}
		return v + 1
	})
	if err == nil {
		t.Fatal("cancelled Map returned nil error")
	}
	if out[0] != 11 || out[1] != 21 {
		t.Fatalf("pre-cancel elements lost: %v", out)
	}
	if out[2] != 0 || out[3] != 0 {
		t.Fatalf("post-cancel elements ran: %v", out)
	}
}
