package portfolio

import (
	"context"
	"errors"
	"fmt"

	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/workload"
)

// Objective selects which of the paper's two antagonist problems a batch
// solves.
type Objective int

const (
	// MinimizeLatency minimises latency under a period bound
	// (heuristics H1–H4, exact MinLatencyUnderPeriod).
	MinimizeLatency Objective = iota
	// MinimizePeriod minimises period under a latency bound
	// (heuristics H5–H6, exact MinPeriodUnderLatency).
	MinimizePeriod
)

// String returns a short human-readable objective name.
func (o Objective) String() string {
	switch o {
	case MinimizeLatency:
		return "min-latency"
	case MinimizePeriod:
		return "min-period"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// BatchOptions configure one SolveBatch run.
type BatchOptions struct {
	// Objective picks the constrained problem; the zero value is
	// MinimizeLatency.
	Objective Objective
	// Bound is the constraint value: a maximum period under
	// MinimizeLatency, a maximum latency under MinimizePeriod.
	Bound float64
	// RelativeBound rescales Bound per instance: under MinimizeLatency
	// the bound becomes Bound × the instance's period lower bound, under
	// MinimizePeriod it becomes Bound × the instance's optimal latency.
	// Instances of very different magnitudes then share one meaningful
	// Bound (e.g. 2.0 = "twice the ideal").
	RelativeBound bool
	// Exact additionally races the exact DP on instances whose platform
	// is exact.Eligible (comm-homogeneous, compressed speed-class state
	// space within exact.MaxStates).
	Exact bool
	// Workers bounds how many instances run at once (see Map); 0 selects
	// runtime.GOMAXPROCS(0). Results are the same for every worker count.
	Workers int
}

// InstanceResult is the outcome of one batch element.
type InstanceResult struct {
	// Index is the instance's position in the input slice.
	Index int
	// Bound is the resolved absolute constraint the instance was solved
	// under (equal to BatchOptions.Bound unless RelativeBound).
	Bound float64
	// Outcome holds the winning mapping and solver when Err is nil.
	Outcome Outcome
	// Err captures the per-instance failure: every portfolio member
	// missed the bound, or the batch context was cancelled before the
	// instance started.
	Err error
}

// FrontPoint is one entry of a batch's cross-instance frontier.
type FrontPoint struct {
	Instance int // index into the batch's input slice
	Metrics  mapping.Metrics
}

// BatchReport is the aggregate outcome of a SolveBatch run.
type BatchReport struct {
	// Results holds one entry per input instance, in input order.
	Results []InstanceResult
	// Front is the non-dominated subset of the solved metrics across the
	// whole batch, sorted by increasing period: the batch-level
	// trade-off between the two criteria. Deterministic for a given
	// input regardless of worker count.
	Front []FrontPoint
	// Solved and Failed count the partition of Results by Err.
	Solved, Failed int
}

// resolveBound turns opts.Bound into the absolute constraint of one
// instance.
func resolveBound(ev *mapping.Evaluator, opts BatchOptions) float64 {
	if !opts.RelativeBound {
		return opts.Bound
	}
	if opts.Objective == MinimizePeriod {
		return opts.Bound * ev.OptimalLatencyValue()
	}
	return opts.Bound * lowerbound.Period(ev)
}

// solveOne runs one instance's portfolio race.
func solveOne(ctx context.Context, ev *mapping.Evaluator, index int, opts BatchOptions) InstanceResult {
	if err := ctx.Err(); err != nil {
		// Popped after cancellation: report the cancellation itself, not
		// a bogus infeasibility.
		return InstanceResult{Index: index, Err: context.Cause(ctx)}
	}
	bound := resolveBound(ev, opts)
	sopts := SolveOptions{Exact: opts.Exact}
	var (
		out     Outcome
		found   bool
		closest error
	)
	if opts.Objective == MinimizePeriod {
		out, found, closest = UnderLatency(ctx, ev, bound, sopts)
	} else {
		out, found, closest = UnderPeriod(ctx, ev, bound, sopts)
	}
	r := InstanceResult{Index: index, Bound: bound}
	if !found {
		// The race can also come back empty because the context fell
		// between our entry check and the solver's: report that as the
		// cancellation it is, not as infeasibility.
		if cerr := ctx.Err(); cerr != nil && errors.Is(closest, cerr) {
			r.Err = context.Cause(ctx)
			return r
		}
		r.Err = fmt.Errorf("portfolio: instance %d: no solver satisfied %s bound %g: %w",
			index, opts.Objective, bound, closest)
		return r
	}
	r.Outcome = out
	return r
}

// SolveBatch solves every instance under opts through MapIndexed and
// aggregates the outcomes. Results are reported per instance — one
// element's failure never aborts the batch — and the report carries the
// non-dominated frontier of all solved metrics. Instances sharing a
// *platform.Platform share its evaluator tables (groupEvaluators).
//
// Cancelling ctx stops the batch promptly: instances not yet started are
// marked with ctx's error and SolveBatch returns it. Instances already
// running finish (individual solvers are not interruptible), so the
// returned report is always complete and in input order.
//
// For a fixed input and options the report is identical whatever the
// worker count: scheduling never influences results.
func SolveBatch(ctx context.Context, instances []workload.Instance, opts BatchOptions) (BatchReport, error) {
	rows, err := MapIndexed(ctx, opts.Workers, groupEvaluators(instances), func(ctx context.Context, i int, ev *mapping.Evaluator) *InstanceResult {
		r := solveOne(ctx, ev, i, opts)
		return &r
	})
	return batchReport(ctx, rows, err)
}

// batchReport aggregates per-instance rows into the final report.
func batchReport(ctx context.Context, rows []*InstanceResult, err error) (BatchReport, error) {
	report := BatchReport{Results: make([]InstanceResult, len(rows))}
	for i, row := range rows {
		if row == nil { // never started: the context fell first
			report.Results[i] = InstanceResult{Index: i, Err: context.Cause(ctx)}
		} else {
			report.Results[i] = *row
		}
		if report.Results[i].Err != nil {
			report.Failed++
		} else {
			report.Solved++
		}
	}
	report.Front = nonDominated(report.Results)
	return report, err
}

// nonDominated extracts the batch-level frontier from the solved results
// with the shared mapping.Frontier dominance filter.
func nonDominated(results []InstanceResult) []FrontPoint {
	var pts []FrontPoint
	for _, r := range results {
		if r.Err == nil {
			pts = append(pts, FrontPoint{Instance: r.Index, Metrics: r.Outcome.Result.Metrics})
		}
	}
	metrics := make([]mapping.Metrics, len(pts))
	for i, pt := range pts {
		metrics[i] = pt.Metrics
	}
	var front []FrontPoint
	for _, i := range mapping.Frontier(metrics) {
		front = append(front, pts[i])
	}
	return front
}
