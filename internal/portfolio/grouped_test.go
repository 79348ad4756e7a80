package portfolio

import (
	"context"
	"math"
	"testing"

	"pipesched/internal/workload"
)

// sharedPlatformBatch builds a skewed batch: many pipelines over a
// handful of shared platform objects — the shape grouping is for.
func sharedPlatformBatch(n int) []workload.Instance {
	instances := workload.GenerateSet(workload.E2, 10, 8, n, 515)
	platforms := []int{0, 1, 2}
	for i := range instances {
		instances[i].Plat = instances[platforms[i%len(platforms)]].Plat
	}
	return instances
}

// solveBatchUngrouped is the reference SolveBatch is pinned against: the
// same pool and races, with one evaluator built per instance instead of
// per-platform shared tables.
func solveBatchUngrouped(ctx context.Context, instances []workload.Instance, opts BatchOptions) (BatchReport, error) {
	rows, err := MapIndexed(ctx, opts.Workers, instances, func(ctx context.Context, i int, in workload.Instance) *InstanceResult {
		r := solveOne(ctx, in.Evaluator(), i, opts)
		return &r
	})
	return batchReport(ctx, rows, err)
}

// TestSolveBatchGroupedBitIdentical pins SolveBatch's grouped evaluator
// construction to the ungrouped reference: identical per-instance bounds,
// winners, metrics, errors and frontier, for both objectives, with and
// without the exact DP, across worker counts. Grouping may only
// deduplicate construction work, never influence a single output bit.
func TestSolveBatchGroupedBitIdentical(t *testing.T) {
	instances := sharedPlatformBatch(48)
	// A tail of singleton platforms exercises the ungrouped fallback in
	// the same batch.
	instances = append(instances, workload.GenerateSet(workload.E3, 8, 6, 8, 99)...)
	for _, objective := range []Objective{MinimizeLatency, MinimizePeriod} {
		for _, exact := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				opts := BatchOptions{
					Objective:     objective,
					Bound:         1.3,
					RelativeBound: true,
					Exact:         exact,
					Workers:       workers,
				}
				ref, err := solveBatchUngrouped(context.Background(), instances, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SolveBatch(context.Background(), instances, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Solved != ref.Solved || got.Failed != ref.Failed {
					t.Fatalf("%v exact=%v w=%d: grouped solved/failed %d/%d, ungrouped %d/%d",
						objective, exact, workers, got.Solved, got.Failed, ref.Solved, ref.Failed)
				}
				for i := range ref.Results {
					r, g := ref.Results[i], got.Results[i]
					if g.Index != r.Index || math.Float64bits(g.Bound) != math.Float64bits(r.Bound) {
						t.Fatalf("%v exact=%v w=%d instance %d: bound %g != %g",
							objective, exact, workers, i, g.Bound, r.Bound)
					}
					if (g.Err == nil) != (r.Err == nil) {
						t.Fatalf("%v exact=%v w=%d instance %d: err %v != %v",
							objective, exact, workers, i, g.Err, r.Err)
					}
					if r.Err == nil && (g.Outcome.Solver != r.Outcome.Solver || !sameResult(g.Outcome.Result, r.Outcome.Result)) {
						t.Fatalf("%v exact=%v w=%d instance %d: outcome (%q %+v) != (%q %+v)",
							objective, exact, workers, i,
							g.Outcome.Solver, g.Outcome.Result.Metrics, r.Outcome.Solver, r.Outcome.Result.Metrics)
					}
				}
				if len(got.Front) != len(ref.Front) {
					t.Fatalf("%v exact=%v w=%d: front sizes %d != %d",
						objective, exact, workers, len(got.Front), len(ref.Front))
				}
				for i := range ref.Front {
					if got.Front[i] != ref.Front[i] {
						t.Fatalf("%v exact=%v w=%d: front[%d] %+v != %+v",
							objective, exact, workers, i, got.Front[i], ref.Front[i])
					}
				}
			}
		}
	}
}
