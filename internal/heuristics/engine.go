// Package heuristics implements the six polynomial bi-criteria mapping
// heuristics of Section 4 of the paper, built on a shared interval
// splitting engine.
//
// Every heuristic sorts processors by non-increasing speed and starts from
// the latency-optimal mapping (all stages on the fastest processor), then
// repeatedly splits the interval of the processor currently achieving the
// largest cycle-time, enrolling the next fastest unused processor(s):
//
//   - H1 "Sp mono P":   2-way splits, mono-criterion rule, period fixed.
//   - H2 "3-Explo mono": 3-way splits, mono-criterion rule, period fixed.
//   - H3 "3-Explo bi":  3-way splits, Δlatency/Δperiod rule, period fixed.
//   - H4 "Sp bi P":     binary search over an authorized latency increase
//     around ratio-guided 2-way splits, period fixed.
//   - H5 "Sp mono L":   2-way splits, mono rule, latency fixed.
//   - H6 "Sp bi L":     2-way splits, ratio rule, latency fixed.
//
// Where the paper under-specifies, DESIGN.md §4 records the choices; the
// most important are that a split is applied only when it strictly reduces
// the bottleneck cycle-time (termination) and that 3-Explo falls back to a
// 2-way split when fewer than two unused processors or fewer than three
// stages remain.
//
// The engine is allocation-free in steady state: its working set (the
// interval list, per-interval cycle-times and the fastest-first free
// list) lives in a mapping.Scratch leased from the evaluator, the state
// struct itself is pooled with its flat cost tables, 3-way last-part
// table and H4 trajectory log, candidates are fixed-size values, and
// apply splices parts into the interval list in place. A solve touches
// the heap only to materialise the final Mapping. The pre-pooling engine
// is retained verbatim in legacy_oracle_test.go as the oracle the
// rebuilt engine must match bit for bit.
package heuristics

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

// ErrUnsupportedPlatform reports that a heuristic was asked to solve on a
// platform kind outside its capability (see the Supports methods). It is
// returned — never panicked — from every exported entry point, so a
// caller holding an arbitrary platform can always dispatch by capability
// with errors.Is(err, ErrUnsupportedPlatform) instead of recovering.
var ErrUnsupportedPlatform = errors.New("heuristics: unsupported platform kind")

// unsupportedPlatform wraps ErrUnsupportedPlatform with the offending
// kind and a pointer at the lane that does serve it.
func unsupportedPlatform(kind platform.Kind) error {
	return fmt.Errorf("%w: the paper's splitting engine targets comm-homogeneous platforms, got %q (use SplitFullyHet or the FullHet* heuristics)", ErrUnsupportedPlatform, kind)
}

// commHomogeneousOnly is embedded by the paper's H1–H6 heuristics (and
// the X7/X8 extensions): their shared splitting engine prices every link
// at one bandwidth, so they serve Communication Homogeneous platforms
// only. The fullhet lane (fullhet.go) overrides Supports to accept every
// kind.
type commHomogeneousOnly struct{}

// Supports reports whether the heuristic can solve on plat.
func (commHomogeneousOnly) Supports(plat *platform.Platform) bool {
	return plat.Kind() == platform.CommHomogeneous
}

// relEps is the relative tolerance used for feasibility comparisons; all
// quantities are sums of a few dozen well-scaled terms, so 1e-9 is far
// above accumulated rounding and far below any modelling signal.
const relEps = 1e-9

// leq reports x ≤ y up to relative tolerance.
func leq(x, y float64) bool { return x <= leqLimit(y) }

// leqLimit is the acceptance limit of leq: leq(x, y) ⇔ x <= leqLimit(y).
// A latency cap decides every candidate and replayed step by one such
// comparison against leqLimit(cap), which H4's trial memo keys on.
func leqLimit(y float64) float64 { return y + relEps*(1+math.Abs(y)) }

// lt reports x < y by a margin exceeding the tolerance (used for the
// strict-improvement acceptance rule).
func lt(x, y float64) bool { return x < y-relEps*(1+math.Abs(y)) }

// state is the mutable working set of the splitting engine: the current
// interval mapping, its per-interval cycle-times, the current latency,
// and the unused processors. Acquire with acquireState, return with
// release; between the two the interval, cycle and free slices alias the
// evaluator-leased scratch, and reset rewinds to the initial mapping
// without touching the heap (H4's bisection trials and the sweepers rerun
// the engine through it).
type state struct {
	ev *mapping.Evaluator
	sc *mapping.Scratch

	ivs    []mapping.Interval
	cycles []float64 // cycles[j] = cycle-time of ivs[j]
	lat    float64   // current latency, equation (2)

	// Flat cost tables, rebound at every acquire and kept (with their
	// capacity) on the pooled state. Candidate scoring reads them
	// directly instead of calling Evaluator.Cycle → CycleParts →
	// Pipeline.Delta/IntervalWork and Platform.Speed per term. Each entry
	// is the value those accessors compute, and cycle and
	// latencyContribution combine the entries with the accessors' float
	// operations in the accessors' order, so every score is bit-identical.
	work     []float64 // work[k] = IntervalWork(1, k), work[0] = 0
	commB    []float64 // commB[k] = δ_k·(1/b): the cycle-time communication term
	deltaB   []float64 // deltaB[k] = δ_k/b: the latency communication term
	speed    []float64 // speed[u] = s_u: latency terms divide by it
	invSpeed []float64 // invSpeed[u] = 1/s_u: cycle-times multiply by it

	// ends is the last-part table of one 3-way scan (see scanThreeWay).
	ends []endPart

	// free holds every non-fastest processor in fastest-first order;
	// entries before freeOff are enrolled. Candidates only ever enroll
	// the next one or two unused processors, so consumption is a cursor
	// bump, not a filter.
	free    []int
	freeOff int

	// minRejectedLat and maxAdmittedLat are the smallest total latency
	// (current + Δ) the latency cap rejected and the largest it admitted
	// since the last reset, over scanned candidates and replayed steps.
	// A rerun whose cap limit (leqLimit) lies in [maxAdmittedLat,
	// minRejectedLat) takes every decision identically. LatencySweeper's
	// warm starts rest on the upper side (budgets only grow), H4's trial
	// memo on both. An uncapped 3-way scan (H2, H3), whose bookkeeping
	// nothing reads, records only the cut pairs it prices.
	minRejectedLat float64
	maxAdmittedLat float64

	// pairsVisited counts the 3-way cut pairs whose procs[0] floor was
	// formed since the last reset, and pairsPriced those whose candidates
	// were built (scanThreeWay's windows and bounds skip the others whole).
	pairsVisited int
	pairsPriced  int

	// log is the trajectory of H4's uncapped trial: every applied step in
	// order (see replay). trials memoises H4's bisection trials (see
	// SpBiP.MinimizeLatencyRaced). Both are cleared at acquire, because
	// the state pool is shared across evaluators.
	log    []step
	trials []capTrial

	// race holds the mid-race cancellation hooks (race.go); the zero
	// value — every solo run — disables them.
	race raceWatch
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// acquireState takes an engine state from the pool, leases scratch
// buffers from ev, binds the flat cost tables and rewinds to the initial
// latency-optimal mapping. The caller must release the state when done.
// On a platform kind the engine cannot price it returns
// ErrUnsupportedPlatform instead of panicking — no request input may
// reach a panic through a heuristic.
func acquireState(ev *mapping.Evaluator) (*state, error) {
	plat := ev.Platform()
	if plat.Kind() != platform.CommHomogeneous {
		return nil, unsupportedPlatform(plat.Kind())
	}
	st := statePool.Get().(*state)
	st.ev = ev
	st.race = raceWatch{}
	st.log = st.log[:0]
	st.trials = st.trials[:0]
	st.sc = ev.LeaseScratch()
	st.ivs = st.sc.Ivs[:0]
	st.cycles = st.sc.Cycles[:0]
	st.free = st.sc.Procs[:0]
	for i := 1; i < plat.Processors(); i++ {
		st.free = append(st.free, plat.OrderedProcessor(i))
	}
	st.bindTables(ev.Pipeline(), plat)
	st.reset()
	return st, nil
}

// bindTables fills the flat cost tables for one pipeline and platform.
// The reciprocals are the ones mapping.Evaluator precomputes (1/b and
// 1/s_u), and work[e]-work[d-1] is the prefix-sum difference
// IntervalWork(d, e) returns, bit for bit.
func (st *state) bindTables(app *pipeline.Pipeline, plat *platform.Platform) {
	b := plat.Bandwidth()
	invB := 1 / b
	st.work = append(st.work[:0], 0)
	st.commB = append(st.commB[:0], app.Delta(0)*invB)
	st.deltaB = append(st.deltaB[:0], app.Delta(0)/b)
	for k := 1; k <= app.Stages(); k++ {
		st.work = append(st.work, app.IntervalWork(1, k))
		st.commB = append(st.commB, app.Delta(k)*invB)
		st.deltaB = append(st.deltaB, app.Delta(k)/b)
	}
	// Processors are numbered from 1; entry 0 is padding.
	st.speed = append(st.speed[:0], 0)
	st.invSpeed = append(st.invSpeed[:0], 0)
	for u := 1; u <= plat.Processors(); u++ {
		s := plat.Speed(u)
		st.speed = append(st.speed, s)
		st.invSpeed = append(st.invSpeed, 1/s)
	}
}

// release hands the grown buffers back to the evaluator's scratch pool
// and the state, with its tables, back to the engine pool.
func (st *state) release() {
	st.sc.Ivs = st.ivs[:0]
	st.sc.Cycles = st.cycles[:0]
	st.sc.Procs = st.free[:0]
	st.sc.Release()
	st.ev, st.sc = nil, nil
	st.ivs, st.cycles, st.free = nil, nil, nil
	statePool.Put(st)
}

// reset rewinds the state to the initial mapping: all stages on the
// fastest processor, every other processor free.
func (st *state) reset() {
	n := st.ev.Pipeline().Stages()
	first := st.ev.Platform().Fastest()
	st.ivs = append(st.ivs[:0], mapping.Interval{Start: 1, End: n, Proc: first})
	st.cycles = append(st.cycles[:0], st.cycle(1, n, first))
	st.freeOff = 0
	st.lat = st.latencyContribution(1, n, first) + st.deltaB[n]
	st.minRejectedLat = math.Inf(1)
	st.maxAdmittedLat = math.Inf(-1)
	st.pairsVisited, st.pairsPriced = 0, 0
}

// cycle is Evaluator.Cycle(d, e, u) on the flat tables:
// δ_{d-1}·(1/b) + W(d,e)·(1/s_u) + δ_e·(1/b), summed in that order.
func (st *state) cycle(d, e, u int) float64 {
	return st.commB[d-1] + (st.work[e]-st.work[d-1])*st.invSpeed[u] + st.commB[e]
}

// latencyContribution returns the latency term of one interval:
// δ_{d-1}/b + W(d,e)/s_u (the trailing δ_n/b of equation (2) is tracked
// separately as a constant).
func (st *state) latencyContribution(d, e, u int) float64 {
	return st.deltaB[d-1] + (st.work[e]-st.work[d-1])/st.speed[u]
}

// period returns the current period (max cycle-time).
func (st *state) period() float64 {
	max := st.cycles[0]
	for _, c := range st.cycles[1:] {
		if c > max {
			max = c
		}
	}
	return max
}

// bottleneck returns the index of the interval achieving the period
// (lowest index on ties, for determinism).
func (st *state) bottleneck() int {
	best := 0
	for j, c := range st.cycles {
		if c > st.cycles[best] {
			best = j
		}
	}
	return best
}

// latency returns the current latency.
func (st *state) latency() float64 { return st.lat }

// part is one piece of a candidate split.
type part struct {
	d, e, proc int
	cycle      float64
}

// candidate is a proposed replacement of the bottleneck interval by two
// or three parts. It is a fixed-size value: candidates are scored,
// compared and copied without heap allocation.
type candidate struct {
	parts    [3]part
	n        int     // parts in use (2 or 3)
	maxCycle float64 // max cycle among the parts
	dLat     float64 // latency change of the whole mapping
	ratio    float64 // selectBi only: max_i Δlatency/Δperiod(i); +Inf when some Δperiod(i) ≤ 0
}

// step is one applied split of a recorded trajectory.
type step struct {
	idx int // bottleneck interval index
	c   candidate
}

// selection rules: the mono-criterion rule minimises the worst new
// cycle-time; the bi-criteria rule minimises the worst
// Δlatency/Δperiod(i) ratio. Ties fall back to the other criterion, then
// to generation order (deterministic).

type selectRule int

const (
	selectMono selectRule = iota
	selectBi
)

// better reports whether a candidate scored (maxCycle, dLat, ratio)
// beats b under rule. The mono rule never reads the ratio.
func better(rule selectRule, maxCycle, dLat, ratio float64, b *candidate) bool {
	switch rule {
	case selectMono:
		if maxCycle != b.maxCycle {
			return maxCycle < b.maxCycle
		}
		return dLat < b.dLat
	default: // selectBi
		if ratio != b.ratio {
			return ratio < b.ratio
		}
		return maxCycle < b.maxCycle
	}
}

// splitRatio returns max_i Δlatency/Δperiod(i) over the first n parts'
// cycle-times (worst maxCycle), or +Inf when some part does not undercut
// the old cycle-time by more than the tolerance. Rounding is monotone, so
// the smallest Δperiod(i) is the worst part's, and the largest quotient
// is that of the smallest Δperiod when dLat ≥ 0 and of the largest one
// otherwise: one division yields the per-part maximum bit for bit.
func splitRatio(oldCycle, dLat, maxCycle float64, n int, cyc *[3]float64) float64 {
	dp := oldCycle - maxCycle
	if dp <= relEps*(1+oldCycle) {
		return math.Inf(1)
	}
	if dLat < 0 {
		minCycle := cyc[0]
		for i := 1; i < n; i++ {
			if cyc[i] < minCycle {
				minCycle = cyc[i]
			}
		}
		dp = oldCycle - minCycle
	}
	return dLat / dp
}

// maxOf returns the largest of the first n cycle-times (0 when all are
// smaller), scanning in part order.
func maxOf(n int, cyc *[3]float64) float64 {
	max := 0.0
	for i := 0; i < n; i++ {
		if cyc[i] > max {
			max = cyc[i]
		}
	}
	return max
}

// splitOptions bundles the knobs the six heuristics vary.
type splitOptions struct {
	rule       selectRule
	threeWay   bool    // try 3-way splits, falling back to 2-way
	maxLatency float64 // candidates must keep latency ≤ maxLatency (+Inf to disable)
	record     bool    // append every applied step to the log (H4's uncapped trial)
}

// scan is one bestSplit: its loop invariants and its running best.
type scan struct {
	st       *state
	rule     selectRule
	oldCycle float64 // cycle-time of the interval being split
	oldLat   float64 // its latency contribution
	improve  float64 // lt(x, oldCycle) ⇔ x < improve
	capLim   float64 // leq(x, maxLatency) ⇔ x <= capLim
	// uncapped is set with no latency cap. lazy is set under the mono
	// rule with no latency cap: a candidate whose worst cycle exceeds the
	// best one's can then neither win nor feed minRejectedLat, so its
	// latency is never summed.
	uncapped bool
	lazy     bool
	best     candidate
	found    bool
}

// admit takes a candidate that strictly reduces the bottleneck, given its
// n parts' cycle-times (worst maxCycle) and latency contributions. It
// reports whether the candidate respects the latency cap and beats the
// best so far; if so its score is now the best's and the caller records
// the parts. Every cap decision feeds minRejectedLat or maxAdmittedLat
// (the sweep warm-start and H4 memo invariants). Sums run in part order,
// matching the legacy engine bit for bit.
func (s *scan) admit(maxCycle float64, n int, cyc, lat *[3]float64) bool {
	newLat := 0.0
	for i := 0; i < n; i++ {
		newLat += lat[i]
	}
	dLat := newLat - s.oldLat
	total := s.st.lat + dLat
	if !(total <= s.capLim) {
		if total < s.st.minRejectedLat {
			s.st.minRejectedLat = total
		}
		return false
	}
	if total > s.st.maxAdmittedLat {
		s.st.maxAdmittedLat = total
	}
	ratio := 0.0
	if s.rule == selectBi {
		ratio = splitRatio(s.oldCycle, dLat, maxCycle, n, cyc)
	}
	if s.found && !better(s.rule, maxCycle, dLat, ratio, &s.best) {
		return false
	}
	s.best.n, s.best.maxCycle, s.best.dLat, s.best.ratio = n, maxCycle, dLat, ratio
	s.found = true
	return true
}

// skip reports whether a candidate of worst cycle maxCycle can be
// dropped before its latency is summed: it does not strictly reduce the
// bottleneck, or (lazy scans) it is worse than the best on the mono
// rule's first key.
func (s *scan) skip(maxCycle float64) bool {
	return !(maxCycle < s.improve) || (s.lazy && s.found && maxCycle > s.best.maxCycle)
}

// bestSplit enumerates the admissible splits of interval idx and returns
// the best candidate under the options, or ok=false when no admissible
// candidate exists.
func (st *state) bestSplit(idx int, opt splitOptions) (candidate, bool) {
	nFree := len(st.free) - st.freeOff
	if nFree == 0 {
		return candidate{}, false
	}
	iv := st.ivs[idx]
	oldCycle := st.cycles[idx]
	uncapped := math.IsInf(opt.maxLatency, 1)
	s := scan{
		st:       st,
		rule:     opt.rule,
		oldCycle: oldCycle,
		oldLat:   st.latencyContribution(iv.Start, iv.End, iv.Proc),
		improve:  oldCycle - relEps*(1+math.Abs(oldCycle)),
		capLim:   leqLimit(opt.maxLatency),
		uncapped: uncapped,
		lazy:     opt.rule == selectMono && uncapped,
	}
	stages := iv.End - iv.Start + 1
	if opt.threeWay && nFree >= 2 && stages >= 3 {
		st.scanThreeWay(&s, iv)
		if s.found {
			return s.best, true
		}
		// No admissible 3-way split: fall through to 2-way below.
	}
	if stages < 2 {
		return candidate{}, false
	}
	st.scanTwoWay(&s, iv)
	return s.best, s.found
}

// scanTwoWay offers every cut k of iv with the left part [d..k] on the
// interval's processor and the right part on the next free one, then the
// mirror assignment.
func (st *state) scanTwoWay(s *scan, iv mapping.Interval) {
	d, e := iv.Start, iv.End
	procs := [2]int{iv.Proc, st.free[st.freeOff]}
	w0, wE := st.work[d-1], st.work[e]
	var cyc, lat [3]float64
	for k := d; k < e; k++ {
		wl, wr := st.work[k]-w0, wE-st.work[k]
		for o := 0; o < 2; o++ {
			a, b := procs[o], procs[1-o]
			cyc[0] = st.commB[d-1] + wl*st.invSpeed[a] + st.commB[k]
			cyc[1] = st.commB[k] + wr*st.invSpeed[b] + st.commB[e]
			maxCycle := maxOf(2, &cyc)
			if s.skip(maxCycle) {
				continue
			}
			lat[0] = st.deltaB[d-1] + wl/st.speed[a]
			lat[1] = st.deltaB[k] + wr/st.speed[b]
			if s.admit(maxCycle, 2, &cyc, &lat) {
				s.best.parts[0] = part{d: d, e: k, proc: a, cycle: cyc[0]}
				s.best.parts[1] = part{d: k + 1, e: e, proc: b, cycle: cyc[1]}
			}
		}
	}
}

// endPart prices one part on each of the three processors of a 3-way
// scan: cycle-times and latency contributions.
type endPart struct {
	cyc, lat [3]float64
}

// perms lists the bijections of the three parts onto the three
// processors, in the legacy engine's generation order.
var perms = [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// scanThreeWay offers all cut pairs k1 < k2 of iv and all bijections of
// the three parts onto the interval's processor and the next two free
// ones — the paper's "testing all possible permutations and all possible
// positions where to cut". The first part [d..k1] depends only on k1 and
// the last part [k2+1..e] only on k2: the last parts are tabulated once
// per scan and the first part priced once per k1, so a cut pair prices
// only its middle part. Values and generation order are unchanged.
//
// Pairs whose six candidates provably cannot become the pick are not
// priced. procs[0] is enrolled and the other two are the next free
// processors, so the speeds fall (weakly) from procs[0] to procs[2], and
// each part's cycle-time is smallest on procs[0] (rounding is monotone,
// as are the sums of admit and the division of splitRatio). So every
// assignment of a pair has maxCycle ≥ mc, the largest of its parts'
// procs[0] cycle-times, and skip(mc) implies skip for all six:
//   - Cut windows. Dropping one communication term from a part's procs[0]
//     cycle-time leaves a lower bound of mc that is monotone in one cut:
//     commB[d−1] + w₁·inv₀ grows with k1 and commB[k1] + w_m·inv₀ with
//     k2. skip is monotone in its argument and only tightens during a
//     scan (the lazy rule's best maxCycle only falls), so the k1 loop
//     stops at the first skipped first part and the k2 loop at the first
//     skipped middle part. The last part's procs[0] cycle-time falls with
//     k2 up to its commB[k2] term, so the skipped last parts lead: k2
//     starts past them, at a cursor that only moves right (a skipped
//     part stays skipped). The loops leave out only pairs that skip(mc)
//     would drop where they stand, so every candidate admit sees, cap
//     bookkeeping included, is one the full loops would give it.
//   - Sorted-assignment latency bound (uncapped bi scans). A latency term
//     is δ_{start−1}/b + w/s_u, so by the rearrangement inequality every
//     bijection's newLat is at least the parts' δ/b terms plus their
//     works in descending order over the three speeds in descending
//     order. The bound multiplies by reciprocals and adds in another
//     order than admit, so it may exceed a true newLat by a few units in
//     the last place; it gives up relEps·(1+bound), far above that, so
//     an exact tie (no communication, equal speeds: every dLat 0) is
//     never skipped. With dp = oldCycle − mc > 0 and the rise
//     = bound − margin − oldLat > 0, every dLat of the pair is at least
//     the rise, and splitRatio divides it by at most dp (maxCycle ≥ mc)
//     or returns +Inf: every ratio is at least rise/dp. A pair whose
//     bound exceeds the best ratio loses on the rule's first key. Equal
//     ratios fall to the second key, so the test is strict. The skip
//     leaves the pair's candidates out of maxAdmittedLat, so it runs only
//     in uncapped scans (H3), where no cap bookkeeping is read.
func (st *state) scanThreeWay(s *scan, iv mapping.Interval) {
	d, e := iv.Start, iv.End
	procs := [3]int{iv.Proc, st.free[st.freeOff], st.free[st.freeOff+1]}
	inv0, inv1, inv2 := st.invSpeed[procs[0]], st.invSpeed[procs[1]], st.invSpeed[procs[2]]
	w0, wE := st.work[d-1], st.work[e]
	// ends[k2-d-1] prices [k2+1..e], for k2 in [d+1, e-1].
	st.ends = st.ends[:0]
	for k2 := d + 1; k2 < e; k2++ {
		var ep endPart
		w := wE - st.work[k2]
		for pi, u := range procs {
			ep.cyc[pi] = st.commB[k2] + w*st.invSpeed[u] + st.commB[e]
			ep.lat[pi] = st.deltaB[k2] + w/st.speed[u]
		}
		st.ends = append(st.ends, ep)
	}
	latBound := s.uncapped && s.rule == selectBi
	var first, mid endPart
	var cyc, lat [3]float64
	lo := d + 1 // every k2 < lo has a skipped last part
	for k1 := d; k1 < e-1; k1++ {
		w := st.work[k1] - w0
		c1 := st.commB[d-1] + w*inv0
		if s.skip(c1) {
			break
		}
		for lo < e && s.skip(st.ends[lo-d-1].cyc[0]) {
			lo++
		}
		if lo == e {
			break
		}
		for pi, u := range procs {
			first.cyc[pi] = st.commB[d-1] + w*st.invSpeed[u] + st.commB[k1]
			first.lat[pi] = st.deltaB[d-1] + w/st.speed[u]
		}
		deltas := st.deltaB[d-1] + st.deltaB[k1]
		from := max(k1+1, lo)
		k2 := from
		for ; k2 < e; k2++ {
			wm := st.work[k2] - st.work[k1]
			cm := st.commB[k1] + wm*inv0
			if s.skip(cm) {
				break
			}
			mid.cyc[0] = cm + st.commB[k2]
			last := &st.ends[k2-d-1]
			mc := max(first.cyc[0], mid.cyc[0], last.cyc[0])
			if s.skip(mc) {
				continue
			}
			if latBound && s.found {
				if dp := s.oldCycle - mc; dp > 0 {
					// The works in descending order a ≥ b ≥ c.
					a, b, c := w, wm, wE-st.work[k2]
					if a < b {
						a, b = b, a
					}
					if b < c {
						b, c = c, b
						if a < b {
							a, b = b, a
						}
					}
					bound := deltas + st.deltaB[k2] + a*inv0 + b*inv1 + c*inv2
					if rise := bound - relEps*(1+bound) - s.oldLat; rise > 0 && rise/dp > s.best.ratio {
						continue
					}
				}
			}
			st.pairsPriced++
			for pi := 1; pi < 3; pi++ {
				mid.cyc[pi] = st.commB[k1] + wm*st.invSpeed[procs[pi]] + st.commB[k2]
			}
			priced := false // mid.lat is filled on first need
			for _, pm := range perms {
				cyc = [3]float64{first.cyc[pm[0]], mid.cyc[pm[1]], last.cyc[pm[2]]}
				maxCycle := maxOf(3, &cyc)
				if s.skip(maxCycle) {
					continue
				}
				if !priced {
					for pi, u := range procs {
						mid.lat[pi] = st.deltaB[k1] + wm/st.speed[u]
					}
					priced = true
				}
				lat = [3]float64{first.lat[pm[0]], mid.lat[pm[1]], last.lat[pm[2]]}
				if s.admit(maxCycle, 3, &cyc, &lat) {
					s.best.parts = [3]part{
						{d: d, e: k1, proc: procs[pm[0]], cycle: cyc[0]},
						{d: k1 + 1, e: k2, proc: procs[pm[1]], cycle: cyc[1]},
						{d: k2 + 1, e: e, proc: procs[pm[2]], cycle: cyc[2]},
					}
				}
			}
		}
		st.pairsVisited += k2 - from
	}
}

// apply splices the candidate's parts over interval idx in place and
// advances the free-list cursor past the newly enrolled processors
// (candidates always enroll the next one or two unused processors).
func (st *state) apply(idx int, c *candidate) {
	np := c.n
	for i := 1; i < np; i++ {
		st.ivs = append(st.ivs, mapping.Interval{})
		st.cycles = append(st.cycles, 0)
	}
	copy(st.ivs[idx+np:], st.ivs[idx+1:])
	copy(st.cycles[idx+np:], st.cycles[idx+1:])
	for i := 0; i < np; i++ {
		p := c.parts[i]
		st.ivs[idx+i] = mapping.Interval{Start: p.d, End: p.e, Proc: p.proc}
		st.cycles[idx+i] = p.cycle
	}
	st.lat += c.dLat
	st.freeOff += np - 1
}

// splitUntil repeatedly splits the bottleneck interval under opt until the
// period drops to target or below, or no admissible split remains. It
// reports whether the target was reached. Raced runs additionally poll
// their cancellation bounds between splits (racePoll, a no-op for solo
// runs) and stop early when they prove the run cannot win. With
// opt.record every applied step is appended to the log.
func (st *state) splitUntil(target float64, opt splitOptions) bool {
	for !leq(st.period(), target) {
		if st.racePoll(target) {
			return false
		}
		idx := st.bottleneck()
		c, ok := st.bestSplit(idx, opt)
		if !ok {
			return false
		}
		st.apply(idx, &c)
		if opt.record {
			st.log = append(st.log, step{idx: idx, c: c})
		}
	}
	return true
}

// replay re-applies the logged uncapped trajectory from the initial
// mapping for as long as each step keeps the latency within latCap, and
// stops at the first step that does not. A run under latCap takes
// exactly these steps: on an identical state its admissible set is the
// uncapped one minus the candidates over latCap, so the uncapped pick is
// also its pick whenever it meets latCap (a scan keeps the first
// candidate of best score, and no earlier candidate can tie it). The
// caller resumes splitUntil under latCap from where replay stops. Each
// step's cap decision feeds maxAdmittedLat or minRejectedLat, as in admit.
func (st *state) replay(latCap float64) {
	lim := leqLimit(latCap)
	for i := range st.log {
		s := &st.log[i]
		total := st.lat + s.c.dLat
		if !(total <= lim) {
			if total < st.minRejectedLat {
				st.minRejectedLat = total
			}
			return
		}
		if total > st.maxAdmittedLat {
			st.maxAdmittedLat = total
		}
		st.apply(s.idx, &s.c)
	}
}

// Result is the outcome of one heuristic run.
type Result struct {
	Mapping *mapping.Mapping
	Metrics mapping.Metrics
}

// result materialises the current state as a validated Mapping with its
// metrics — the one heap-touching step of a solve.
func (st *state) result() Result {
	m := mapping.MustNew(st.ev.Pipeline(), st.ev.Platform(), st.ivs)
	return Result{Mapping: m, Metrics: mapping.Metrics{Period: st.period(), Latency: st.latency()}}
}

// InfeasibleError reports that a heuristic could not satisfy its
// constraint. Best holds the best mapping the heuristic reached anyway
// (useful for failure-threshold studies: Best.Metrics records how close it
// got).
type InfeasibleError struct {
	Heuristic  string
	Constraint string  // "period" or "latency"
	Target     float64 // the requested bound
	Achieved   float64 // the best value reached
	Best       Result
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("heuristics: %s could not reach %s ≤ %g (best achieved %g)",
		e.Heuristic, e.Constraint, e.Target, e.Achieved)
}
