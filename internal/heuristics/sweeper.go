package heuristics

// Warm-started sweep support. A Pareto sweep runs the same heuristic at
// many adjacent bounds; rerunning from scratch at every grid point
// recomputes a splitting prefix that the previous point already built.
// The sweepers below keep one pooled engine alive across the grid and
// exploit two structural facts of the splitting engine:
//
//   - A period-constrained trajectory does not depend on its target: the
//     bound only decides when to STOP splitting, so a non-increasing
//     bound sequence is served by resuming one trajectory (H1–H3).
//   - A latency-constrained run depends on its budget only through the
//     candidates the cap rejected. The engine records the smallest total
//     latency among cap-rejected candidates (state.minRejectedLat); any
//     larger budget below that threshold admits exactly the same
//     candidate sets at every step, so the result provably repeats and
//     the run is skipped outright (H5/H6 and the X7/X8 extensions).
//
// Results are bit-identical to fresh per-bound runs — the sweep
// equivalence tests and portfolio.ParetoSweep's frontier determinism
// depend on it.

import (
	"errors"
	"math"

	"pipesched/internal/mapping"
)

// PeriodSweeper solves one period-constrained heuristic across a
// non-increasing sequence of period bounds. For the pure splitting
// heuristics (H1–H3) it extends a single trajectory. SpBiP's trajectory
// depends on its bisection's latency caps, so each bound runs a fresh
// solve, whose trials replay that solve's own uncapped trajectory; the
// sweeper caches the infeasibility threshold — once a bound fails, every
// tighter bound fails with the identical payload. Unknown
// PeriodConstrained implementations fall back to fresh solves.
type PeriodSweeper struct {
	ev   *mapping.Evaluator
	h    PeriodConstrained
	opt  splitOptions
	traj bool

	st        *state
	stuck     bool   // no admissible split remains
	dirty     bool   // trajectory advanced since last materialisation
	have      bool   // last is valid
	last      Result // last materialised feasible result
	final     Result // materialised stuck state (error payload)
	haveFinal bool
	prev      float64 // previous bound, for the monotone contract

	fail *InfeasibleError // SpBiP failure cache
}

// NewPeriodSweeper binds a sweeper to one evaluator and heuristic. Call
// Close when the sweep is done to return the pooled engine. A heuristic
// that does not support the evaluator's platform takes the fresh-solve
// fallback, whose per-bound calls return ErrUnsupportedPlatform.
func NewPeriodSweeper(ev *mapping.Evaluator, h PeriodConstrained) *PeriodSweeper {
	s := &PeriodSweeper{ev: ev, h: h, prev: math.Inf(1)}
	if !h.Supports(ev.Platform()) {
		return s
	}
	switch h.(type) {
	case SpMonoP:
		s.opt, s.traj = splitOptions{rule: selectMono, maxLatency: math.Inf(1)}, true
	case ThreeExploMono:
		s.opt, s.traj = splitOptions{rule: selectMono, threeWay: true, maxLatency: math.Inf(1)}, true
	case ThreeExploBi:
		s.opt, s.traj = splitOptions{rule: selectBi, threeWay: true, maxLatency: math.Inf(1)}, true
	}
	if s.traj {
		st, err := acquireState(ev)
		if err != nil {
			// Supports and the engine gate agree for the known types, so
			// this cannot fire; degrading to fresh solves keeps it safe.
			s.traj = false
			return s
		}
		s.st = st
	}
	return s
}

// Solve returns exactly what h.MinimizeLatency(ev, bound) would — same
// result, same error payload — while reusing work from earlier calls.
// Bounds should be non-increasing; a larger bound is answered with a
// fresh solve (correct, just not warm).
func (s *PeriodSweeper) Solve(bound float64) (Result, error) {
	if bound > s.prev {
		return s.h.MinimizeLatency(s.ev, bound)
	}
	s.prev = bound
	if !s.traj {
		if s.fail != nil {
			// Splitting failure thresholds are monotone: the trajectory
			// that exhausted above this bound exhausts below it too, with
			// the same best state; only the reported target changes.
			e := *s.fail
			e.Target = bound
			return e.Best, &e
		}
		res, err := s.h.MinimizeLatency(s.ev, bound)
		if err != nil {
			var inf *InfeasibleError
			if _, isH4 := s.h.(SpBiP); isH4 && errors.As(err, &inf) {
				s.fail = inf
			}
		}
		return res, err
	}
	st := s.st
	for !s.stuck && !leq(st.period(), bound) {
		idx := st.bottleneck()
		c, ok := st.bestSplit(idx, s.opt)
		if !ok {
			s.stuck = true
			break
		}
		st.apply(idx, &c)
		s.dirty = true
	}
	if leq(st.period(), bound) {
		if s.dirty || !s.have {
			s.last = st.result()
			s.have, s.dirty = true, false
		}
		return s.last, nil
	}
	if !s.haveFinal {
		s.final = st.result()
		s.haveFinal = true
	}
	return s.final, &InfeasibleError{Heuristic: s.h.Name(), Constraint: "period", Target: bound, Achieved: s.final.Metrics.Period, Best: s.final}
}

// Close releases the pooled engine. The sweeper must not be used after.
func (s *PeriodSweeper) Close() {
	if s.st != nil {
		s.st.release()
		s.st = nil
	}
}

// LatencySweeper solves one latency-constrained heuristic across a
// non-decreasing sequence of latency budgets on one pooled engine,
// skipping reruns whose result provably repeats (no candidate the
// previous run's cap rejected becomes admissible under the new budget).
// Unknown LatencyConstrained implementations fall back to fresh solves.
type LatencySweeper struct {
	ev    *mapping.Evaluator
	h     LatencyConstrained
	opt   splitOptions // maxLatency set per run
	known bool

	st       *state
	initLat  float64 // latency of the initial mapping (= Lemma-1 optimum)
	initRes  Result  // materialised initial state (infeasibility payload)
	haveInit bool

	have   bool
	prev   float64
	minRej float64 // state.minRejectedLat of the cached run
	last   Result
}

// NewLatencySweeper binds a sweeper to one evaluator and heuristic. Call
// Close when the sweep is done. A heuristic that does not support the
// evaluator's platform takes the fresh-solve fallback, exactly as in
// NewPeriodSweeper.
func NewLatencySweeper(ev *mapping.Evaluator, h LatencyConstrained) *LatencySweeper {
	s := &LatencySweeper{ev: ev, h: h, prev: math.Inf(-1)}
	if !h.Supports(ev.Platform()) {
		return s
	}
	switch h.(type) {
	case SpMonoL:
		s.opt, s.known = splitOptions{rule: selectMono}, true
	case SpBiL:
		s.opt, s.known = splitOptions{rule: selectBi}, true
	case ThreeExploMonoL:
		s.opt, s.known = splitOptions{rule: selectMono, threeWay: true}, true
	case ThreeExploBiL:
		s.opt, s.known = splitOptions{rule: selectBi, threeWay: true}, true
	}
	if s.known {
		st, err := acquireState(ev)
		if err != nil {
			s.known = false
			return s
		}
		s.st = st
		s.initLat = s.st.latency()
	}
	return s
}

// Solve returns exactly what h.MinimizePeriod(ev, budget) would. Budgets
// should be non-decreasing; a smaller budget is answered with a fresh
// solve.
func (s *LatencySweeper) Solve(budget float64) (Result, error) {
	if !s.known || budget < s.prev {
		return s.h.MinimizePeriod(s.ev, budget)
	}
	s.prev = budget
	if !leq(s.initLat, budget) {
		// Below the Lemma-1 optimum even the initial mapping busts the
		// budget; the payload is the initial state, whatever the budget.
		if !s.haveInit {
			s.st.reset()
			s.initRes = s.st.result()
			s.haveInit = true
			s.have = false // st no longer holds the cached run's state
		}
		return s.initRes, &InfeasibleError{Heuristic: s.h.Name(), Constraint: "latency", Target: budget, Achieved: s.initRes.Metrics.Latency, Best: s.initRes}
	}
	if s.have && !leq(s.minRej, budget) {
		// Every candidate the cached run's cap rejected still exceeds
		// this budget, so a fresh run would replay the identical
		// decision sequence: the result repeats without re-enumerating.
		return s.last, nil
	}
	opt := s.opt
	opt.maxLatency = budget
	s.st.reset()
	s.st.splitUntil(0, opt)
	s.minRej = s.st.minRejectedLat
	s.last = s.st.result()
	s.have = true
	return s.last, nil
}

// Close releases the pooled engine. The sweeper must not be used after.
func (s *LatencySweeper) Close() {
	if s.st != nil {
		s.st.release()
		s.st = nil
	}
}
