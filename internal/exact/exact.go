// Package exact provides optimal reference solvers for the bi-criteria
// interval mapping problem on Communication Homogeneous platforms. The
// problem is NP-hard (Theorem 2 of the paper), so everything here is
// exponential in the platform's structure and gated to tractable
// instances; the solvers exist to validate the polynomial heuristics, to
// win portfolio races where they fit, and to compute exact Pareto fronts
// in tests, examples and ablation benchmarks.
//
// The production engine is a speed-class-compressed dynamic program
// (compressed.go): processors of equal speed are interchangeable, so the
// DP tracks per-class usage counts instead of a 2^p used-set bitmask,
// shrinking the state space to ∏_k (c_k+1) over the class sizes c_k. The
// historical bitmask DP is retained (legacy_oracle_test.go) as an
// independent oracle the test-suite cross-checks against, alongside a
// plain exhaustive enumeration.
package exact

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"pipesched/internal/mapping"
	"pipesched/internal/platform"
)

// MaxStates caps the compressed state space ∏_k (c_k+1) accepted by the
// solvers, which allocate O(∏(c_k+1) · n) state. The cap admits every
// platform of up to 16 processors (worst case: all speeds distinct,
// 2^16 states) and arbitrarily larger platforms whose speeds repeat —
// a homogeneous 100-processor platform needs only 101 states.
const MaxStates = 1 << 16

// Result is an optimal mapping together with its metrics.
type Result struct {
	Mapping *mapping.Mapping
	Metrics mapping.Metrics
}

// ErrInfeasible is returned when no interval mapping satisfies the
// requested constraint.
var ErrInfeasible = errors.New("exact: no interval mapping satisfies the constraint")

// ErrNotBelow is returned by the race entry points when no interval
// mapping that could beat the race's incumbent meets the constraint:
// none with a period strictly below the ceiling (MinPeriodUnderLatencyBelow),
// or none with a latency within the incumbent's (MinLatencyUnderPeriodWithin).
var ErrNotBelow = errors.New("exact: no interval mapping below the ceiling satisfies the constraint")

// Incumbent is a portfolio race's incumbent as the exact solvers poll it:
// Best is the best metric another member has achieved so far. It only
// ever falls; a solver keeps the smallest value it has read.
type Incumbent interface{ Best() float64 }

// Eligible reports whether the exact solvers accept the platform: it must
// be Communication Homogeneous with a compressed state space within
// MaxStates. This is the gate portfolio races and batch solvers key their
// exact-DP participation on — note it depends on the speed-class
// structure, not the raw processor count.
func Eligible(plat *platform.Platform) bool {
	return plat.Kind() == platform.CommHomogeneous && plat.ClassStateSpace() <= MaxStates
}

func guard(ev *mapping.Evaluator) error {
	plat := ev.Platform()
	if plat.Kind() != platform.CommHomogeneous {
		return errors.New("exact: solvers are defined on comm-homogeneous platforms")
	}
	if s := plat.ClassStateSpace(); s > MaxStates {
		return fmt.Errorf("exact: compressed state space %d (%d processors in %d speed classes) exceeds limit %d",
			s, plat.Processors(), plat.SpeedClasses(), MaxStates)
	}
	return nil
}

// MinPeriod returns an interval mapping of minimum period (the NP-hard
// objective of Theorem 2), optimal over all interval mappings.
func MinPeriod(ev *mapping.Evaluator) (Result, error) {
	if err := guard(ev); err != nil {
		return Result{}, err
	}
	a := acquireArena(ev)
	defer a.release()
	_, state, ok := a.run(objMinPeriod, 0, nil)
	if !ok {
		return Result{}, ErrInfeasible
	}
	return a.result(state)
}

// MinLatencyUnderPeriod returns the minimum-latency interval mapping among
// those of period ≤ maxPeriod, or ErrInfeasible when none exists. This is
// the exact counterpart of the paper's period-constrained heuristics. It
// is MinLatencyUnderPeriodWithin with no incumbent, a dense fill.
func MinLatencyUnderPeriod(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	return MinLatencyUnderPeriodWithin(ev, maxPeriod, nil)
}

// MinLatencyUnderPeriodWithin is MinLatencyUnderPeriod for a caller that
// only wants a mapping whose latency is at most inc.Best(): a portfolio
// race whose incumbent already holds a mapping of that latency. The
// cutoff is non-strict, because a mapping of equal latency can still win
// the race on its period.
//
// The fill reads inc before every row and prunes each cell that can no
// longer finish within the smallest value read. Every cell that can keeps
// its exact value and backpointer, so when the optimum is within the
// cutoff the mapping is MinLatencyUnderPeriod's, bit for bit. Otherwise
// the result is ErrNotBelow, or ErrInfeasible when inc read +Inf
// throughout and no mapping meets the period bound.
func MinLatencyUnderPeriodWithin(ev *mapping.Evaluator, maxPeriod float64, inc Incumbent) (Result, error) {
	if err := guard(ev); err != nil {
		return Result{}, err
	}
	a := acquireArena(ev)
	defer a.release()
	var cut *latencyCut
	if inc != nil {
		cut = &latencyCut{tail: a.latencyTail(), bound: math.Inf(1), inc: inc}
	}
	_, state, ok := a.run(objMinLatency, maxPeriod*slack, cut)
	switch {
	case ok:
		return a.result(state)
	case cut != nil && !math.IsInf(cut.bound, 1):
		return Result{}, ErrNotBelow
	default:
		return Result{}, ErrInfeasible
	}
}

// MinPeriodUnderLatency returns the minimum-period interval mapping among
// those of latency ≤ maxLatency, or ErrInfeasible when none exists. It is
// MinPeriodUnderLatencyBelow with no ceiling.
func MinPeriodUnderLatency(ev *mapping.Evaluator, maxLatency float64) (Result, error) {
	return MinPeriodUnderLatencyBelow(ev, maxLatency, nil)
}

// MinPeriodUnderLatencyBelow is MinPeriodUnderLatency for a caller that
// only wants a period strictly below ceiling() — a portfolio race whose
// incumbent already holds a mapping of that period. The period only takes
// values among the distinct interval cycle-times — at most n(n+1)/2·K
// over the K speed classes — so the solver bisects that candidate set:
// each probe is an early-exit feasibility test in the shared arena, and
// only the chosen candidate gets a full fill and a reconstruction. Probes
// are cut at the latency bound: they skip every cell that cannot finish
// within it. The final fill is cut at the latency the probe that proved
// the chosen candidate found there, which the candidate's optimum cannot
// exceed.
//
// ceiling is polled before every probe, and the bisection is capped at
// the largest candidate strictly below it. Like a race incumbent, it
// only falls: a reading above an earlier one counts as the earlier one.
// The first probe is always the largest candidate below the first
// reading, so only the candidates below it are collected, and they are
// sorted only when that probe passes. When no candidate below the
// ceiling is feasible the result is ErrNotBelow, or ErrInfeasible when the
// ceiling excluded no candidate. The mapping an unbounded solve returns
// never has a period below its candidate, so ErrNotBelow only withholds a
// mapping whose period reaches the ceiling. A nil ceiling never binds. Any
// mapping returned is bit-identical to MinPeriodUnderLatency's.
func MinPeriodUnderLatencyBelow(ev *mapping.Evaluator, maxLatency float64, ceiling func() float64) (Result, error) {
	if err := guard(ev); err != nil {
		return Result{}, err
	}
	a := acquireArena(ev)
	defer a.release()
	tail := a.latencyTail()
	latBound := maxLatency * slack
	// read polls the ceiling. A nil one reads NaN, which excludes no
	// candidate: nothing compares at or above NaN.
	read := func() float64 {
		if ceiling == nil {
			return math.NaN()
		}
		return ceiling()
	}
	cands, excluded := a.candidatesBelow(read())
	if len(cands) == 0 {
		return Result{}, ErrNotBelow
	}
	largest := slices.Max(cands)
	hiLat, ok := a.probe(largest*slack, tail, latBound)
	if !ok {
		// Nothing below the first reading is feasible: the next reading
		// decides only the error, ErrInfeasible when neither excludes a
		// candidate.
		if c := read(); excluded || largest >= c {
			return Result{}, ErrNotBelow
		}
		return Result{}, ErrInfeasible
	}
	cands = sortUnique(cands)
	// Every candidate below lo is infeasible; hi is the smallest candidate
	// proven feasible, and hiLat the latency its probe found.
	lo, hi := 0, len(cands)-1
	for {
		top := sort.SearchFloat64s(cands, read()) // cands[:top] lie strictly below the ceiling
		if hi < top {
			if lo == hi {
				break
			}
			mid := (lo + hi) / 2
			if lat, ok := a.probe(cands[mid]*slack, tail, latBound); ok {
				hi, hiLat = mid, lat
			} else {
				lo = mid + 1
			}
			continue
		}
		// The ceiling fell to or below the smallest candidate proven
		// feasible: the largest candidate under it decides whether
		// anything there is.
		if lo >= top {
			return Result{}, ErrNotBelow
		}
		if lat, ok := a.probe(cands[top-1]*slack, tail, latBound); ok {
			hi, hiLat = top-1, lat
		} else {
			lo = top
		}
	}
	// A cut fill returns the dense optimum bit for bit whenever that
	// optimum is within the cut. hiLat is the exact value of one final
	// cell under cands[hi], so the optimum there is within it.
	_, state, ok := a.run(objMinLatency, cands[hi]*slack, &latencyCut{tail: tail, bound: hiLat})
	if !ok {
		return Result{}, fmt.Errorf("exact: bisection lost feasibility at %g", cands[hi])
	}
	return a.result(state)
}

// ParetoPoint is one non-dominated (period, latency) trade-off with a
// witness mapping.
type ParetoPoint struct {
	Metrics mapping.Metrics
	Mapping *mapping.Mapping
}

// ParetoFront returns the exact Pareto front of (period, latency) over all
// interval mappings, sorted by increasing period (hence decreasing
// latency).
//
// The sweep is incremental: the sorted candidate cycle-time set and the
// solver arena are built once and shared by every probe. Candidates below
// the exact minimum period (one min-period DP) are skipped outright, each
// surviving candidate costs one min-latency DP, cut at the last point's
// latency, whose value is compared before any mapping is reconstructed,
// and the sweep stops as soon as the latency reaches the Lemma-1 optimum
// — no later bound can improve it.
func ParetoFront(ev *mapping.Evaluator) ([]ParetoPoint, error) {
	if err := guard(ev); err != nil {
		return nil, err
	}
	a := acquireArena(ev)
	defer a.release()
	cands := a.sortedCandidates()
	tail := a.latencyTail()
	optLat := ev.OptimalLatencyValue()

	// The minimum period is itself a candidate cycle-time (a period is the
	// max cycle of some mapping); everything below it is infeasible.
	minP, _, ok := a.run(objMinPeriod, 0, nil)
	if !ok {
		return nil, ErrInfeasible
	}
	first := sort.SearchFloat64s(cands, minP)

	var points []ParetoPoint
	prevLatency := math.Inf(1)
	for _, c := range cands[first:] {
		// A candidate only adds a point when its optimum beats the last
		// point's latency, so its fill is cut there: a cut fill returns
		// the uncut optimum bit for bit whenever that optimum is within
		// the cut, and nothing otherwise.
		v, state, ok := a.run(objMinLatency, c*slack, &latencyCut{tail: tail, bound: prevLatency})
		if !ok {
			continue // no better point here (or, numeric edge, no mapping at all)
		}
		if lat := v + tail; lat < prevLatency-1e-12 {
			res, err := a.result(state)
			if err != nil {
				return nil, err
			}
			points = append(points, ParetoPoint{Metrics: res.Metrics, Mapping: res.Mapping})
			prevLatency = lat
			if lat <= optLat {
				break // Lemma 1: latency cannot drop further
			}
		}
	}
	// The achieved period of a solution can be smaller than the candidate
	// bound that produced it, so earlier points may be dominated: run a
	// standard dominance sweep on (period asc, latency asc).
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i].Metrics, points[j].Metrics
		if a.Period != b.Period {
			return a.Period < b.Period
		}
		return a.Latency < b.Latency
	})
	var front []ParetoPoint
	bestLatency := math.Inf(1)
	for _, pt := range points {
		if pt.Metrics.Latency < bestLatency-1e-12 {
			front = append(front, pt)
			bestLatency = pt.Metrics.Latency
		}
	}
	return front, nil
}
