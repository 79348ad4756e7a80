package pipesched

import (
	"context"
	"fmt"

	"pipesched/internal/portfolio"
)

// Concurrent portfolio and batch solving, built on internal/portfolio.
// The engine is pure orchestration: results are bit-identical to the
// serial reference path whatever the worker count.
type (
	// BatchOptions configure one SolveBatch run: objective, bound,
	// exact-solver participation and worker count.
	BatchOptions = portfolio.BatchOptions
	// BatchReport aggregates a batch: per-instance results in input
	// order plus the non-dominated cross-instance frontier.
	BatchReport = portfolio.BatchReport
	// InstanceResult is the outcome of one batch element (resolved
	// bound, winning solver and mapping, or the per-instance error).
	InstanceResult = portfolio.InstanceResult
	// FrontPoint is one entry of a batch's non-dominated frontier.
	FrontPoint = portfolio.FrontPoint
	// PortfolioOutcome is the winner of a portfolio race: the result
	// plus the identifier of the solver that produced it.
	PortfolioOutcome = portfolio.Outcome
	// BatchObjective selects which constrained problem a batch solves.
	BatchObjective = portfolio.Objective
)

// The two batch objectives.
const (
	// MinimizeLatency minimises latency under a period bound (H1–H4
	// plus the exact DP when enabled).
	MinimizeLatency = portfolio.MinimizeLatency
	// MinimizePeriod minimises period under a latency bound (H5–H6
	// plus the exact DP when enabled).
	MinimizePeriod = portfolio.MinimizePeriod
)

// SolveBatch solves every instance under opts, at most opts.Workers
// (default GOMAXPROCS) at once on the caller and idle solver-pool workers,
// and returns one result per instance plus the batch-level non-dominated
// frontier. One instance's failure never aborts the batch. Cancelling ctx
// stops the batch promptly; unstarted instances carry the cancellation.
func SolveBatch(ctx context.Context, instances []WorkloadInstance, opts BatchOptions) (BatchReport, error) {
	return portfolio.SolveBatch(ctx, instances, opts)
}

// PortfolioUnderPeriod races all four period-constrained heuristics plus
// the exact DP (on ExactEligible platforms — keyed on the speed-class
// structure, not the processor count) and returns the best feasible
// outcome — smallest latency, ties broken on period — as soon as the
// whole portfolio drains. The outcome names the winning solver
// ("H1".."H4" or "DP").
func PortfolioUnderPeriod(ctx context.Context, ev *Evaluator, maxPeriod float64) (PortfolioOutcome, error) {
	out, found, closest := portfolio.UnderPeriod(ctx, ev, maxPeriod, portfolio.SolveOptions{Exact: true})
	if !found {
		return PortfolioOutcome{}, fmt.Errorf("pipesched: no portfolio solver reached period ≤ %g: %w", maxPeriod, closest)
	}
	return out, nil
}

// PortfolioUnderLatency races both latency-constrained heuristics plus the
// exact DP (on ExactEligible platforms) and returns the best feasible
// outcome — smallest period.
func PortfolioUnderLatency(ctx context.Context, ev *Evaluator, maxLatency float64) (PortfolioOutcome, error) {
	out, found, closest := portfolio.UnderLatency(ctx, ev, maxLatency, portfolio.SolveOptions{Exact: true})
	if !found {
		return PortfolioOutcome{}, fmt.Errorf("pipesched: no portfolio solver reached latency ≤ %g: %w", maxLatency, closest)
	}
	return out, nil
}
