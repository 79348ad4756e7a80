package portfolio

import (
	"context"
	"errors"
	"sync"

	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/platform"
)

// ExactID is the solver identifier of the exact dynamic program in a
// portfolio outcome, alongside the heuristic identifiers H1..H6 (and the
// fully-heterogeneous lane's F1/F5/F6).
const ExactID = "DP"

// periodSolvers selects the period-constrained solver registry by
// platform capability: the paper's H1–H4 serve Communication Homogeneous
// platforms (unchanged member set, so comm-homogeneous races stay
// bit-identical to their history), while fully heterogeneous platforms
// race the fullhet lane (F1). Every returned solver Supports plat, so no
// race member can return ErrUnsupportedPlatform.
func periodSolvers(plat *platform.Platform) []heuristics.PeriodConstrained {
	if plat.Kind() == platform.CommHomogeneous {
		return heuristics.PeriodHeuristics()
	}
	return heuristics.FullHetPeriodHeuristics()
}

// latencySolvers is the latency-constrained twin of periodSolvers:
// H5–H6 on comm-homogeneous platforms, F5–F6 on fully heterogeneous
// ones.
func latencySolvers(plat *platform.Platform) []heuristics.LatencyConstrained {
	if plat.Kind() == platform.CommHomogeneous {
		return heuristics.LatencyHeuristics()
	}
	return heuristics.FullHetLatencyHeuristics()
}

// SolveOptions configure one portfolio race.
type SolveOptions struct {
	// Exact also races the exact DP when the platform is
	// exact.Eligible — comm-homogeneous with a compressed speed-class
	// state space within exact.MaxStates (it silently sits the race out
	// otherwise). Eligibility is keyed on the speed-class structure, not
	// the raw processor count: a 100-processor platform with few distinct
	// speeds races the DP, while 17 pairwise-distinct speeds do not. The
	// DP dominates every heuristic when it applies, at exponential cost.
	Exact bool
}

// Outcome is the winning entry of a portfolio race.
type Outcome struct {
	Result heuristics.Result
	Solver string // winning solver: "H1".."H6" or ExactID
}

// attempt is one solver's finished run.
type attempt struct {
	id  string
	res heuristics.Result
	err error
}

// solver is one portfolio member, closed over its instance and bound.
// A cancellation-aware member polls the race incumbent and aborts with
// heuristics.ErrRaceLost once its running bound proves defeat: H1–H6 and
// both exact DP members do. The fullhet lane ignores it, runs to
// completion and only feeds the incumbent.
type solver struct {
	id  string
	run func(inc *heuristics.Incumbent) (heuristics.Result, error)
}

// incPool recycles race incumbents so a race allocates none on pooled
// steady state.
var incPool = sync.Pool{New: func() any { return heuristics.NewIncumbent() }}

// race runs every solver on the calling goroutine, in seqIndex order,
// against one incumbent: every finished member offers its selection
// metric, and raced members abort once they provably cannot beat it. It
// returns the attempts in solver order, so selection scans them in
// portfolio order whatever order they ran in.
func race(solvers []solver, hasExact bool, metric func(mapping.Metrics) float64) []attempt {
	out := make([]attempt, len(solvers))
	inc := incPool.Get().(*heuristics.Incumbent)
	inc.Reset()
	defer incPool.Put(inc)
	for k := range solvers {
		i := seqIndex(k, len(solvers), hasExact)
		out[i] = runRaced(&solvers[i], inc, metric)
	}
	return out
}

// runRaced executes one member against the shared incumbent: raced
// members poll it, every finished member offers its selection metric.
func runRaced(s *solver, inc *heuristics.Incumbent, metric func(mapping.Metrics) float64) attempt {
	res, err := s.run(inc)
	if err == nil {
		inc.Offer(metric(res.Metrics))
	}
	return attempt{id: s.id, res: res, err: err}
}

// seqIndex schedules the race: the first member (the cheap splitter)
// seeds the incumbent, then the exact DP — when present, always last in
// the solver slice — runs against that seed. It publishes the optimal
// value when that value could still be selected over the seed and
// abandons otherwise; either way every expensive explorer that follows
// races against the best possible incumbent and aborts at the first
// provably-losing split.
func seqIndex(k, n int, hasExact bool) int {
	if !hasExact || n < 2 {
		return k
	}
	switch {
	case k == 0:
		return 0
	case k == 1:
		return n - 1
	default:
		return k - 1
	}
}

func exactApplies(ev *mapping.Evaluator, opts SolveOptions) bool {
	return opts.Exact && exact.Eligible(ev.Platform())
}

// UnderPeriod races the period-constrained solvers of the platform's
// capability lane (H1–H4 on comm-homogeneous platforms, F1 on fully
// heterogeneous ones, plus the exact DP when opts.Exact applies) and
// returns the feasible outcome with the
// smallest latency (ties: smallest period; further ties: portfolio order).
// found reports whether any member met the bound; when none did, closest is
// the *heuristics.InfeasibleError whose achieved period came closest to the
// bound (nil when no member produced one). closest is unspecified when
// found: the race abandons provably-losing members before they can report
// a near-miss, so only the found outcome matches a run of every member to
// completion. An unmet bound disables cancellation entirely (aborts
// require a feasible incumbent), so the infeasibility report matches it
// too.
//
// The selection replays the serial scan of the original façade loop member
// by member, so the returned result is bit-identical to running the
// heuristics sequentially.
func UnderPeriod(ctx context.Context, ev *mapping.Evaluator, maxPeriod float64, opts SolveOptions) (out Outcome, found bool, closest error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, false, err
	}
	solvers, hasExact := periodMembers(ev, maxPeriod, opts)
	return pickUnderPeriod(race(solvers, hasExact, latencyMetric))
}

// latencyMetric is the incumbent metric of period-constrained races.
func latencyMetric(m mapping.Metrics) float64 { return m.Latency }

// periodMembers builds UnderPeriod's race members in portfolio order,
// the exact DP last when it applies.
func periodMembers(ev *mapping.Evaluator, maxPeriod float64, opts SolveOptions) (solvers []solver, hasExact bool) {
	for _, h := range periodSolvers(ev.Platform()) {
		h := h
		solvers = append(solvers, solver{id: h.ID(), run: func(inc *heuristics.Incumbent) (heuristics.Result, error) {
			if r, ok := h.(heuristics.PeriodRacer); ok {
				return r.MinimizeLatencyRaced(ev, maxPeriod, inc)
			}
			return h.MinimizeLatency(ev, maxPeriod)
		}})
	}
	hasExact = exactApplies(ev, opts)
	if hasExact {
		// The raced DP prunes every cell that cannot finish within the
		// incumbent latency. A mapping of larger latency would lose the
		// selection anyway, so not finding one is a lost race; a tie is
		// still returned, as it can win on its period.
		solvers = append(solvers, solver{id: ExactID, run: func(inc *heuristics.Incumbent) (heuristics.Result, error) {
			r, err := exact.MinLatencyUnderPeriodWithin(ev, maxPeriod, inc)
			if errors.Is(err, exact.ErrNotBelow) {
				err = heuristics.ErrRaceLost
			}
			return heuristics.Result{Mapping: r.Mapping, Metrics: r.Metrics}, err
		}})
	}
	return solvers, hasExact
}

// pickUnderPeriod mirrors the serial selection of BestUnderPeriod: strict
// improvement on (latency, period) scanning attempts in portfolio order;
// among failures it remembers the infeasible run that came closest to the
// period bound.
func pickUnderPeriod(attempts []attempt) (out Outcome, found bool, closest error) {
	achieved := 0.0
	for _, a := range attempts {
		if errors.Is(a.err, heuristics.ErrRaceLost) {
			continue // a cancelled member is just a lost race
		}
		if a.err != nil {
			var inf *heuristics.InfeasibleError
			if errors.As(a.err, &inf) && (closest == nil || inf.Achieved < achieved) {
				closest, achieved = a.err, inf.Achieved
			}
			continue
		}
		if !found ||
			a.res.Metrics.Latency < out.Result.Metrics.Latency ||
			(a.res.Metrics.Latency == out.Result.Metrics.Latency && a.res.Metrics.Period < out.Result.Metrics.Period) {
			out, found = Outcome{Result: a.res, Solver: a.id}, true
		}
	}
	return out, found, closest
}

// UnderLatency races the latency-constrained solvers of the platform's
// capability lane (H5–H6 on comm-homogeneous platforms, F5–F6 on fully
// heterogeneous ones, plus the exact DP when opts.Exact applies) and
// returns the feasible outcome with
// the smallest period (ties: portfolio order). When no member met the
// bound, closest is the first failure in portfolio order — the error the
// serial loop would have reported; as with UnderPeriod it is unspecified
// when found.
func UnderLatency(ctx context.Context, ev *mapping.Evaluator, maxLatency float64, opts SolveOptions) (out Outcome, found bool, closest error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, false, err
	}
	solvers, hasExact := latencyMembers(ev, maxLatency, opts)
	return pickUnderLatency(race(solvers, hasExact, periodMetric))
}

// periodMetric is the incumbent metric of latency-constrained races.
func periodMetric(m mapping.Metrics) float64 { return m.Period }

// latencyMembers builds UnderLatency's race members in portfolio order,
// the exact DP last when it applies.
func latencyMembers(ev *mapping.Evaluator, maxLatency float64, opts SolveOptions) (solvers []solver, hasExact bool) {
	for _, h := range latencySolvers(ev.Platform()) {
		h := h
		solvers = append(solvers, solver{id: h.ID(), run: func(inc *heuristics.Incumbent) (heuristics.Result, error) {
			if r, ok := h.(heuristics.LatencyRacer); ok {
				return r.MinimizePeriodRaced(ev, maxLatency, inc)
			}
			return h.MinimizePeriod(ev, maxLatency)
		}})
	}
	hasExact = exactApplies(ev, opts)
	if hasExact {
		// The raced DP caps its bisection below the incumbent period. A
		// mapping it could only find at or above that period would lose
		// the selection anyway (strict improvement, DP scanned last), so
		// not finding one is a lost race.
		solvers = append(solvers, solver{id: ExactID, run: func(inc *heuristics.Incumbent) (heuristics.Result, error) {
			r, err := exact.MinPeriodUnderLatencyBelow(ev, maxLatency, inc.Best)
			if errors.Is(err, exact.ErrNotBelow) {
				err = heuristics.ErrRaceLost
			}
			return heuristics.Result{Mapping: r.Mapping, Metrics: r.Metrics}, err
		}})
	}
	return solvers, hasExact
}

// pickUnderLatency mirrors the serial selection of BestUnderLatency:
// strict improvement on the period scanning attempts in portfolio order;
// the remembered failure is the first one.
func pickUnderLatency(attempts []attempt) (out Outcome, found bool, closest error) {
	for _, a := range attempts {
		if errors.Is(a.err, heuristics.ErrRaceLost) {
			continue // a cancelled member is just a lost race
		}
		if a.err != nil {
			if closest == nil {
				closest = a.err
			}
			continue
		}
		if !found || a.res.Metrics.Period < out.Result.Metrics.Period {
			out, found = Outcome{Result: a.res, Solver: a.id}, true
		}
	}
	return out, found, closest
}
