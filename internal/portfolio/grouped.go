package portfolio

import (
	"context"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

// Batches are skewed: a sweep over one cluster submits many pipelines
// against a handful of platforms. SolveBatch groups the batch by platform
// identity and constructs each group's evaluators through
// mapping.NewEvaluators, which computes the platform-derived tables
// (reciprocal speed, class and link matrices) once per group and shares
// their backing arrays. Grouping changes no output bit; tests pin it
// against per-instance construction.

// SolveBatchGrouped is SolveBatch. It stays for the repository benchmark:
// loopbench/trace.go times the batch lane under this name.
func SolveBatchGrouped(ctx context.Context, instances []workload.Instance, opts BatchOptions) (BatchReport, error) {
	return SolveBatch(ctx, instances, opts)
}

// groupEvaluators builds one evaluator per instance, sharing the
// platform-derived tables within each pointer-identity group. Instances
// with equal-content but distinct platform objects fall into singleton
// groups, which is always correct, merely unshared (the service layer
// dedups platforms at decode time, so its batches arrive pointer-shared).
// The returned slice is in input order.
func groupEvaluators(instances []workload.Instance) []*mapping.Evaluator {
	evs := make([]*mapping.Evaluator, len(instances))
	groups := make(map[*platform.Platform][]int, 4)
	order := make([]*platform.Platform, 0, 4)
	for i, in := range instances {
		if _, seen := groups[in.Plat]; !seen {
			order = append(order, in.Plat)
		}
		groups[in.Plat] = append(groups[in.Plat], i)
	}
	apps := make([]*pipeline.Pipeline, 0, len(instances))
	for _, plat := range order {
		idx := groups[plat]
		apps = apps[:0]
		for _, i := range idx {
			apps = append(apps, instances[i].App)
		}
		for j, ev := range mapping.NewEvaluators(apps, plat) {
			evs[idx[j]] = ev
		}
	}
	return evs
}
