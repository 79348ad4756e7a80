package portfolio

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

// randFullHetEvaluator draws a seeded fully heterogeneous instance:
// integer works/deltas/speeds and a symmetric positive link-bandwidth
// matrix.
func randFullHetEvaluator(r *rand.Rand, maxN, maxP int) *mapping.Evaluator {
	n := 1 + r.Intn(maxN)
	p := 2 + r.Intn(maxP-1)
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
	links := make([][]float64, p)
	for u := range links {
		links[u] = make([]float64, p)
	}
	for u := 0; u < p; u++ {
		for v := u + 1; v < p; v++ {
			b := float64(1 + r.Intn(20))
			links[u][v], links[v][u] = b, b
		}
	}
	plat, err := platform.NewFullyHeterogeneous(speeds, links)
	if err != nil {
		panic(err)
	}
	return mapping.NewEvaluator(pipeline.MustNew(works, deltas), plat)
}

// TestFullHetParallelMatchesSerial extends the portfolio determinism
// property to the fully heterogeneous lane: the race over F1 (period
// side) and F5/F6 (latency side) returns bit for bit what the reference
// oracle returns, for a spread of bounds around each instance's
// single-processor envelope.
func TestFullHetParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(61))
	for ii := 0; ii < 40; ii++ {
		ev := randFullHetEvaluator(r, 8, 5)
		single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
		p0 := ev.Period(single)
		l0 := ev.Latency(single)
		for _, factor := range []float64{0.3, 0.6, 1.0, 1.5} {
			bound := p0 * factor
			sOut, sFound, sErr := referenceUnderPeriod(ev, bound, SolveOptions{})
			pOut, pFound, pErr := UnderPeriod(ctx, ev, bound, SolveOptions{})
			if sFound != pFound || sOut.Solver != pOut.Solver || !sameResult(sOut.Result, pOut.Result) {
				t.Fatalf("instance %d bound %g: reference (%v, %q, %+v) != race (%v, %q, %+v)",
					ii, bound, sFound, sOut.Solver, sOut.Result.Metrics, pFound, pOut.Solver, pOut.Result.Metrics)
			}
			if (sErr == nil) != (pErr == nil) || (sErr != nil && sErr.Error() != pErr.Error()) {
				t.Fatalf("instance %d bound %g: reference err %v != race err %v", ii, bound, sErr, pErr)
			}
		}
		for _, factor := range []float64{0.9, 1.0, 1.4, 2.5} {
			bound := l0 * factor
			sOut, sFound, sErr := referenceUnderLatency(ev, bound, SolveOptions{})
			pOut, pFound, pErr := UnderLatency(ctx, ev, bound, SolveOptions{})
			if sFound != pFound || sOut.Solver != pOut.Solver || !sameResult(sOut.Result, pOut.Result) {
				t.Fatalf("instance %d latency bound %g: reference != race", ii, bound)
			}
			if (sErr == nil) != (pErr == nil) || (sErr != nil && sErr.Error() != pErr.Error()) {
				t.Fatalf("instance %d latency bound %g: reference err %v != race err %v", ii, bound, sErr, pErr)
			}
		}
	}
}

// TestFullHetPortfolioMatchesSplitFullyHet pins the period-side fullhet
// portfolio to the serial SplitFullyHet reference: with F1 the only
// period-constrained member, the race must return exactly its mapping and
// metrics (or exactly its infeasibility error), never a comm-homogeneous
// heuristic or the DP.
func TestFullHetPortfolioMatchesSplitFullyHet(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(62))
	for ii := 0; ii < 40; ii++ {
		ev := randFullHetEvaluator(r, 8, 5)
		single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
		p0 := ev.Period(single)
		for _, factor := range []float64{0.2, 0.5, 0.8, 1.0} {
			bound := p0 * factor
			ref, refErr := heuristics.SplitFullyHet(ev, bound)
			// Exact is requested but must sit the race out: the DP's
			// eligibility requires a comm-homogeneous platform.
			out, found, closest := UnderPeriod(ctx, ev, bound, SolveOptions{Exact: true})
			if refErr != nil {
				if found {
					t.Fatalf("instance %d bound %g: portfolio found %+v where reference is infeasible (%v)",
						ii, bound, out.Result.Metrics, refErr)
				}
				if closest == nil || closest.Error() != refErr.Error() {
					t.Fatalf("instance %d bound %g: closest error %v != reference %v", ii, bound, closest, refErr)
				}
				continue
			}
			if !found {
				t.Fatalf("instance %d bound %g: portfolio infeasible where reference succeeds", ii, bound)
			}
			if out.Solver != "F1" {
				t.Fatalf("instance %d bound %g: winner %q, want F1", ii, bound, out.Solver)
			}
			if !sameResult(out.Result, ref) {
				t.Fatalf("instance %d bound %g: portfolio %+v != serial SplitFullyHet %+v",
					ii, bound, out.Result.Metrics, ref.Metrics)
			}
		}
	}
}

// TestFullHetParetoSweep checks the heuristic frontier on fully
// heterogeneous platforms: every point is achievable (metrics re-evaluate
// on the instance), no point dominates another, periods ascend, and the
// fanned-out sweep is bit-identical to the single-lane one.
func TestFullHetParetoSweep(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(63))
	for ii := 0; ii < 20; ii++ {
		ev := randFullHetEvaluator(r, 8, 5)
		front := ParetoSweep(ctx, ev, 12, 0)
		if len(front) == 0 {
			t.Fatalf("instance %d: empty frontier", ii)
		}
		for i, pt := range front {
			if math.Abs(ev.Period(pt.Mapping)-pt.Metrics.Period) > 1e-9*(1+pt.Metrics.Period) ||
				math.Abs(ev.Latency(pt.Mapping)-pt.Metrics.Latency) > 1e-9*(1+pt.Metrics.Latency) {
				t.Fatalf("instance %d point %d: metrics %+v do not re-evaluate", ii, i, pt.Metrics)
			}
			if i > 0 {
				prev := front[i-1]
				if pt.Metrics.Period <= prev.Metrics.Period {
					t.Fatalf("instance %d: periods not strictly ascending at %d", ii, i)
				}
				if pt.Metrics.Latency >= prev.Metrics.Latency {
					t.Fatalf("instance %d: point %d dominated by %d", ii, i, i-1)
				}
			}
		}
		serial := ParetoSweep(ctx, ev, 12, 1)
		if len(serial) != len(front) {
			t.Fatalf("instance %d: fanned front has %d points, single-lane %d", ii, len(front), len(serial))
		}
		for i := range front {
			if math.Float64bits(front[i].Metrics.Period) != math.Float64bits(serial[i].Metrics.Period) ||
				math.Float64bits(front[i].Metrics.Latency) != math.Float64bits(serial[i].Metrics.Latency) ||
				front[i].Mapping.String() != serial[i].Mapping.String() {
				t.Fatalf("instance %d: fanned point %d != single-lane point", ii, i)
			}
		}
	}
}
