package heuristics

import (
	"errors"
	"math"

	"pipesched/internal/mapping"
	"pipesched/internal/platform"
)

// PeriodConstrained is a heuristic that minimises latency under a maximum
// period (Section 4.1 of the paper).
type PeriodConstrained interface {
	// Name returns the plot label used by the paper, e.g. "Sp mono, P fix".
	Name() string
	// ID returns the Table-1 identifier, e.g. "H1".
	ID() string
	// Supports reports whether the heuristic can solve on plat. Calling
	// MinimizeLatency on an unsupported platform returns
	// ErrUnsupportedPlatform (it never panics); Supports lets dispatchers
	// pick a capable solver lane up front.
	Supports(plat *platform.Platform) bool
	// MinimizeLatency returns a mapping whose period is at most
	// maxPeriod with latency as small as the heuristic manages. When the
	// heuristic cannot reach the period bound it returns an
	// *InfeasibleError carrying the best mapping found.
	MinimizeLatency(ev *mapping.Evaluator, maxPeriod float64) (Result, error)
}

// LatencyConstrained is a heuristic that minimises the period under a
// maximum latency (Section 4.2 of the paper).
type LatencyConstrained interface {
	Name() string
	ID() string
	// Supports reports whether the heuristic can solve on plat, exactly
	// as PeriodConstrained.Supports.
	Supports(plat *platform.Platform) bool
	// MinimizePeriod returns a mapping whose latency is at most
	// maxLatency with period as small as the heuristic manages, or an
	// *InfeasibleError when even the latency-optimal mapping exceeds the
	// bound.
	MinimizePeriod(ev *mapping.Evaluator, maxLatency float64) (Result, error)
}

// ---------------------------------------------------------------- H1 --

// SpMonoP is heuristic H1, "Splitting mono-criterion" with fixed period:
// repeatedly 2-way split the bottleneck interval, handing stages to the
// next fastest unused processor, choosing the cut minimising
// max(period(j), period(j')); stop as soon as the period bound is met.
type SpMonoP struct{ commHomogeneousOnly }

// Name implements PeriodConstrained.
func (SpMonoP) Name() string { return "Sp mono, P fix" }

// ID implements PeriodConstrained.
func (SpMonoP) ID() string { return "H1" }

// MinimizeLatency implements PeriodConstrained.
func (h SpMonoP) MinimizeLatency(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	return periodConstrainedSplit(ev, maxPeriod, splitOptions{rule: selectMono, maxLatency: math.Inf(1)}, h.Name(), nil)
}

// ---------------------------------------------------------------- H2 --

// ThreeExploMono is heuristic H2, "3-Exploration mono-criterion": split the
// bottleneck interval into three parts over the bottleneck processor and
// the next two fastest unused processors, trying all cut pairs and part
// permutations, and keep the candidate minimising the worst of the three
// new cycle-times.
type ThreeExploMono struct{ commHomogeneousOnly }

// Name implements PeriodConstrained.
func (ThreeExploMono) Name() string { return "3-Explo mono" }

// ID implements PeriodConstrained.
func (ThreeExploMono) ID() string { return "H2" }

// MinimizeLatency implements PeriodConstrained.
func (h ThreeExploMono) MinimizeLatency(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	return periodConstrainedSplit(ev, maxPeriod, splitOptions{rule: selectMono, threeWay: true, maxLatency: math.Inf(1)}, h.Name(), nil)
}

// ---------------------------------------------------------------- H3 --

// ThreeExploBi is heuristic H3, "3-Exploration bi-criteria": same
// exploration as ThreeExploMono but the retained candidate minimises
// max_{i∈{j,j′,j″}} Δlatency/Δperiod(i), trading period improvement
// against latency degradation.
type ThreeExploBi struct{ commHomogeneousOnly }

// Name implements PeriodConstrained.
func (ThreeExploBi) Name() string { return "3-Explo bi" }

// ID implements PeriodConstrained.
func (ThreeExploBi) ID() string { return "H3" }

// MinimizeLatency implements PeriodConstrained.
func (h ThreeExploBi) MinimizeLatency(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	return periodConstrainedSplit(ev, maxPeriod, splitOptions{rule: selectBi, threeWay: true, maxLatency: math.Inf(1)}, h.Name(), nil)
}

// periodConstrainedSplit runs one pooled splitting trajectory towards the
// period bound (the H1–H3 shape). A non-nil inc arms the cancellation
// hooks (race.go): running-latency watch plus infeasibility prediction,
// both gated on a feasible incumbent. A nil inc is a solo run.
func periodConstrainedSplit(ev *mapping.Evaluator, maxPeriod float64, opt splitOptions, name string, inc *Incumbent) (Result, error) {
	st, err := acquireState(ev)
	if err != nil {
		return Result{}, err
	}
	defer st.release()
	st.race = raceWatch{inc: inc, watchLat: true, predict: predictLost}
	ok := st.splitUntil(maxPeriod, opt)
	if st.race.lost {
		return Result{}, ErrRaceLost
	}
	res := st.result()
	if !ok {
		return res, &InfeasibleError{Heuristic: name, Constraint: "period", Target: maxPeriod, Achieved: res.Metrics.Period, Best: res}
	}
	return res, nil
}

// ---------------------------------------------------------------- H4 --

// SpBiP is heuristic H4, "Splitting bi-criteria" with fixed period: a
// binary search over the authorized latency. Each trial runs the
// ratio-guided 2-way splitter under a latency cap and checks whether the
// period bound is reached; the search shrinks the cap while trials stay
// feasible, minimising the final latency.
type SpBiP struct {
	commHomogeneousOnly
	// Iterations bounds the binary search; 0 means DefaultBinaryIters.
	Iterations int
}

// DefaultBinaryIters is the default number of bisection steps of SpBiP;
// it locates the latency cap within a 2^-30 fraction of the bracket.
const DefaultBinaryIters = 30

// Name implements PeriodConstrained.
func (SpBiP) Name() string { return "Sp bi, P fix" }

// ID implements PeriodConstrained.
func (SpBiP) ID() string { return "H4" }

// MinimizeLatency implements PeriodConstrained: the raced solve with no
// incumbent.
func (h SpBiP) MinimizeLatency(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	return h.MinimizeLatencyRaced(ev, maxPeriod, nil)
}

// MinimizeLatencyRaced implements PeriodRacer for H4.
//
// One pooled engine serves every bisection trial: each trial rewinds it
// in place, and only the winning cap's state is materialised, so a full
// binary search allocates once, for the returned Mapping. The first,
// uncapped trial logs its trajectory. Every later trial, and the final
// rewind, replays the logged steps while they meet its cap
// (state.replay) and runs bestSplit only from the first step whose
// uncapped choice exceeds it. Latency never falls along a trajectory, so
// the shared steps are a prefix.
//
// Most trials of a bisection repeat an earlier one, so each trial that
// runs is memoised (capTrial): a cap touches a trial only through the
// comparisons total <= leqLimit(cap), in replay and scan.admit, and a
// trial records the largest total it admitted and the smallest it
// rejected. A later cap whose limit lies between the two takes every
// decision identically, so its outcome is read from the memo instead of
// run. The final rewind runs only when the engine does not already hold
// the winning trial's state.
//
// The bisection cannot use the latency watch — its final latency comes
// from a later, cheaper-capped trial, so the running latency of one
// trial bounds nothing about the whole solve. Instead the uncapped trial
// arms the infeasibility prediction: when the refinement bound proves
// the period target unreachable and a feasible incumbent exists, the
// whole solve is a lost race. Later trials arm predictFail — a trial the
// bound condemns would have ended infeasible anyway, so failing it early
// steers the bisection identically while skipping its tail. No poll can
// fire inside a replayed prefix: the uncapped trial continued from every
// state of it to the target. For the same reason the uncapped trial's
// memo entry also stands for a predictFail trial: the polls read only
// the engine state, and none fires along a path that reached the target.
func (h SpBiP) MinimizeLatencyRaced(ev *mapping.Evaluator, maxPeriod float64, inc *Incumbent) (Result, error) {
	res, _, err := h.bisect(ev, maxPeriod, inc)
	return res, err
}

// bisect is MinimizeLatencyRaced that also reports how many trials ran
// on the engine rather than from the memo, final rewind included.
func (h SpBiP) bisect(ev *mapping.Evaluator, maxPeriod float64, inc *Incumbent) (Result, int, error) {
	iters := h.Iterations
	if iters <= 0 {
		iters = DefaultBinaryIters
	}
	st, err := acquireState(ev)
	if err != nil {
		return Result{}, 0, err
	}
	defer st.release()
	// Unlimited cap first: if even that fails, the heuristic fails. The
	// log is empty here, so this trial replays nothing and logs all.
	st.race = raceWatch{inc: inc, predict: predictLost}
	best := st.runTrial(math.Inf(1), maxPeriod, true)
	if st.race.lost {
		return Result{}, len(st.trials), ErrRaceLost
	}
	if !best.ok {
		res := st.result()
		return res, len(st.trials), &InfeasibleError{Heuristic: h.Name(), Constraint: "period", Target: maxPeriod, Achieved: res.Metrics.Period, Best: res}
	}
	st.race = raceWatch{predict: predictFail}
	bestCap := math.Inf(1)
	lo := ev.OptimalLatencyValue() // latency lower bound (Lemma 1)
	hi := best.met.Latency
	for i := 0; i < iters && hi-lo > relEps*(1+hi); i++ {
		mid := (lo + hi) / 2
		t, ok := st.memoTrial(mid)
		if !ok {
			t = st.runTrial(mid, maxPeriod, false)
		}
		if t.ok {
			if t.met.Latency < best.met.Latency {
				best, bestCap = t, mid
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	// Rewind to the winning cap (trials are deterministic) unless the
	// engine holds its state already — the last trial run, which differs
	// from every other in its window — and materialise that state once.
	if best != st.trials[len(st.trials)-1] {
		st.runTrial(bestCap, maxPeriod, false)
	}
	return st.result(), len(st.trials), nil
}

// capTrial is one of H4's bisection trials run on the engine: its
// outcome, and the cap limits under which every one of its cap decisions
// repeats — any limit in [admitted, rejected).
type capTrial struct {
	admitted float64 // largest total latency the cap admitted
	rejected float64 // smallest total latency the cap rejected
	met      mapping.Metrics
	ok       bool // the trial reached the period target
}

// runTrial runs H4's trial under latCap towards maxPeriod on the engine
// (replayed prefix, then capped splitting; with record the trajectory is
// logged), memoises it and returns it.
func (st *state) runTrial(latCap, maxPeriod float64, record bool) capTrial {
	st.reset()
	st.replay(latCap)
	ok := st.splitUntil(maxPeriod, splitOptions{rule: selectBi, maxLatency: latCap, record: record})
	t := capTrial{
		admitted: st.maxAdmittedLat,
		rejected: st.minRejectedLat,
		met:      mapping.Metrics{Period: st.period(), Latency: st.latency()},
		ok:       ok,
	}
	st.trials = append(st.trials, t)
	return t
}

// memoTrial returns the memoised trial whose decisions latCap repeats,
// if one exists. The windows of distinct trials are disjoint: a limit in
// two of them would make both trials identical.
func (st *state) memoTrial(latCap float64) (capTrial, bool) {
	lim := leqLimit(latCap)
	for _, t := range st.trials {
		if t.admitted <= lim && lim < t.rejected {
			return t, true
		}
	}
	return capTrial{}, false
}

// ---------------------------------------------------------------- H5 --

// SpMonoL is heuristic H5, "Splitting mono-criterion" with fixed latency:
// the SpMonoP splitter with a different break condition — keep splitting
// (reducing the period) as long as the latency bound is respected.
type SpMonoL struct{ commHomogeneousOnly }

// Name implements LatencyConstrained.
func (SpMonoL) Name() string { return "Sp mono, L fix" }

// ID implements LatencyConstrained.
func (SpMonoL) ID() string { return "H5" }

// MinimizePeriod implements LatencyConstrained.
func (h SpMonoL) MinimizePeriod(ev *mapping.Evaluator, maxLatency float64) (Result, error) {
	return latencyConstrainedSplit(ev, maxLatency, selectMono, h.Name())
}

// ---------------------------------------------------------------- H6 --

// SpBiL is heuristic H6, "Splitting bi-criteria" with fixed latency: like
// SpMonoL but each step picks the split minimising
// max_{i∈{j,j′}} Δlatency/Δperiod(i).
type SpBiL struct{ commHomogeneousOnly }

// Name implements LatencyConstrained.
func (SpBiL) Name() string { return "Sp bi, L fix" }

// ID implements LatencyConstrained.
func (SpBiL) ID() string { return "H6" }

// MinimizePeriod implements LatencyConstrained.
func (h SpBiL) MinimizePeriod(ev *mapping.Evaluator, maxLatency float64) (Result, error) {
	return latencyConstrainedSplit(ev, maxLatency, selectBi, h.Name())
}

func latencyConstrainedSplit(ev *mapping.Evaluator, maxLatency float64, rule selectRule, name string) (Result, error) {
	return latencyConstrained(ev, maxLatency, splitOptions{rule: rule, maxLatency: maxLatency}, name, nil)
}

// latencyConstrained is the shared H5/H6 (and X7/X8) runner: start from
// the latency optimum, split as far as the budget allows, on one pooled
// engine. A non-nil inc arms the refinement-bound watch (race.go): the
// running period itself only falls along a trajectory, but the
// refinement bound is a floor on wherever it can end.
func latencyConstrained(ev *mapping.Evaluator, maxLatency float64, opt splitOptions, name string, inc *Incumbent) (Result, error) {
	st, err := acquireState(ev)
	if err != nil {
		return Result{}, err
	}
	defer st.release()
	if !leq(st.latency(), maxLatency) {
		res := st.result()
		return res, &InfeasibleError{Heuristic: name, Constraint: "latency", Target: maxLatency, Achieved: res.Metrics.Latency, Best: res}
	}
	st.race = raceWatch{inc: inc, watchPer: true}
	st.splitUntil(0, opt) // split as far as the latency budget allows
	if st.race.lost {
		return Result{}, ErrRaceLost
	}
	return st.result(), nil
}

// ---------------------------------------------------------- registry --

// PeriodHeuristics returns the four period-constrained heuristics in the
// paper's order (H1–H4).
func PeriodHeuristics() []PeriodConstrained {
	return []PeriodConstrained{SpMonoP{}, ThreeExploMono{}, ThreeExploBi{}, SpBiP{}}
}

// LatencyHeuristics returns the two latency-constrained heuristics (H5, H6).
func LatencyHeuristics() []LatencyConstrained {
	return []LatencyConstrained{SpMonoL{}, SpBiL{}}
}

// MinAchievablePeriod runs h with an unreachable period bound (0) and
// returns the smallest period its splitting trajectory reaches. Because
// each accepted split strictly reduces the bottleneck cycle-time, this
// value is exactly the failure threshold of h on this instance: the
// heuristic succeeds for every target ≥ it and fails below it. A
// non-InfeasibleError failure (the heuristic does not support the
// platform kind) is propagated instead of panicked.
func MinAchievablePeriod(ev *mapping.Evaluator, h PeriodConstrained) (float64, error) {
	res, err := h.MinimizeLatency(ev, 0)
	if err == nil {
		// A zero-period success is only possible on degenerate
		// instances (it cannot happen with positive stage weights).
		return res.Metrics.Period, nil
	}
	var inf *InfeasibleError
	if errors.As(err, &inf) {
		return inf.Best.Metrics.Period, nil
	}
	return 0, err
}

// LatencyFailureThreshold returns the failure threshold of the
// latency-constrained heuristics: they fail exactly when the bound is
// below the optimal latency (Lemma 1), so the threshold is the same for H5
// and H6 — the paper's Table 1 observes this equality empirically.
func LatencyFailureThreshold(ev *mapping.Evaluator) float64 {
	return ev.OptimalLatencyValue()
}
