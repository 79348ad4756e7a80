package exact

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"pipesched/internal/mapping"
)

// This file holds the speed-class-compressed dynamic program that powers
// every exact solver of the package.
//
// Processors enter the cost model only through their speed, so two
// processors of equal speed are interchangeable in any interval mapping:
// swapping them changes neither the period nor the latency. The DP
// therefore does not need to know *which* processors an optimal prefix
// consumed — only *how many of each speed class*. The 2^p used-set bitmask
// of the textbook formulation collapses into a mixed-radix vector of
// per-class usage counts, shrinking the state space from 2^p to
// ∏_k (c_k+1) where c_k is the size of class k. A homogeneous 14-processor
// platform drops from 16384 states to 15; platforms far beyond the old
// 14-processor ceiling become exactly solvable whenever their class
// structure is small.
//
// The workspace (value table, backpointers, per-class cost tables,
// transition lists) lives in a pooled arena so that repeated solves —
// portfolio races, batch sweeps, the service daemon's cache-miss path, and
// the incremental probing of MinPeriodUnderLatency/ParetoFront — are
// allocation-free in steady state.

// objective selects which recurrence the arena runs.
type objective int

const (
	// objMinPeriod minimises the maximum interval cycle-time.
	objMinPeriod objective = iota
	// objMinLatency minimises the summed latency contributions among
	// mappings whose every cycle-time stays under a period bound.
	objMinLatency
)

const inf = math.MaxFloat64

// slack absorbs float noise on constraint boundaries, matching the
// historical behaviour of the solvers.
const slack = 1 + 1e-12

// backpointer packing: prev<<classShift | class. The guard bounds the
// class count by log2(MaxStates) < 32, so five bits always suffice for
// the class and the stage index keeps 26 bits — far beyond any pipeline.
const classShift = 5

// arena is one reusable compressed-DP workspace bound to an evaluator.
// Acquire with acquireArena, return with release; between the two, all
// tables are reused across any number of runs.
type arena struct {
	ev *mapping.Evaluator
	// boundTo survives release: when a pooled arena is re-acquired for
	// the evaluator it last served — the portfolio/batch/service steady
	// state — bind skips rebuilding the cost tables and transitions
	// entirely. Holding the pointer keeps that evaluator
	// reachable, so pointer identity cannot be recycled under us; the
	// pool's GC-driven eviction bounds how long it is pinned.
	boundTo *mapping.Evaluator
	n       int // pipeline stages
	classes int // distinct speed classes K
	states  int // ∏_k (c_k+1)

	csize []int // csize[k] = c_k
	radix []int // radix[k] = ∏_{j<k} (c_j+1): stride of class k's digit

	// Per-class interval costs, indexed k*n*n + (e-1)*n + (d-1) — end-major,
	// so the DP's inner loop over interval starts reads consecutively. One
	// entry holds both costs of [d..e] on class k, which the latency kernel
	// reads together.
	cost []cost

	// Transitions: for every state S, the classes whose usage digit is
	// non-zero, with the predecessor state S - radix[k]. Built once per
	// bind, shared by all runs.
	transOff   []int32 // transOff[S]..transOff[S+1] indexes the two below
	transClass []int8
	transPrev  []int32
	usage      []int16 // usage[S] = Σ_k digit_k(S): processors consumed by S

	f    []float64 // DP values, states×(n+1) state-major: f[S*(n+1)+i]
	back []int32   // packed backpointers, same shape

	// Bound tables of the latency kernel (cutRow), set at bind. spare[S]
	// is the total speed of the processors S leaves unused, fastClass[S]
	// the fastest class among them (classes when S uses every
	// processor), and rem[i] the work of stages i+1..n (0 at i = n).
	spare     []float64
	fastClass []int8
	rem       []float64
	// togo (classes+1 rows of n+1, row-major) is the completion bound of
	// a latency run: togo[k][i] is the least latency of stages i+1..n
	// split into intervals whose cycle on class k meets the run's period
	// bound, given unlimited class-k processors; +Inf when no split fits.
	// A class row is built on its first read in a run with a finite
	// cutoff, under the cutoff of that read; bit k of togoBuilt marks row
	// k built. Row classes, for states with no spare processor, is set at
	// bind (0 at i = n, +Inf below) and marked built by every run.
	togo      []float64
	togoBuilt uint32
	// spans[S] delimits the finite cells of row S after a latency fill.
	spans []span

	cands  []float64          // candidate scratch, refilled by each solve that bisects
	ivbuf  []mapping.Interval // reconstruction scratch
	cursor []int              // per-class member cursor for reconstruction
	digit  []int              // bind's mixed-radix state counter
	speed  []float64          // bind's class speeds

	// maxCycle (set at bind) is the largest cycle-time of the cost table;
	// period bounds at or above it cannot prune any candidate, so
	// latency runs under such bounds skip the feasStart precompute.
	// feasStart (set per run by prepareFeasStart) holds, per (class k,
	// interval end i), the first interval start whose cycle meets the
	// run's period bound: because interval work shrinks as the start
	// advances, infeasible starts cluster at the front, and the DP's
	// inner loops skip straight past them. nil disables the prune.
	// reach (per class k, predecessor cell kk, armed with feasStart) is
	// the last interval end whose feasStart is at most kk: no cell past
	// it can close an interval from a predecessor whose last finite cell
	// is kk, or -1 when none can.
	maxCycle  float64
	feasStart []int32
	reach     []int32
}

// span delimits the finite cells of one row: first > last when it has none.
type span struct{ first, last int32 }

// cost is one interval's entry in the cost table: its full cycle-time and
// its latency contribution (input + compute terms).
type cost struct{ cyc, lat float64 }

// maxClasses bounds the speed-class count, hence the transitions into any
// state: every class has a member, so 2^classes ≤ MaxStates.
const maxClasses = 16

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// acquireArena takes an arena from the pool and binds it to ev: sizes the
// tables (reusing previous capacity), precomputes the per-class cycle and
// latency tables and the state transition lists. The caller must release
// the arena when done.
func acquireArena(ev *mapping.Evaluator) *arena {
	a := arenaPool.Get().(*arena)
	a.bind(ev)
	return a
}

func (a *arena) release() {
	a.ev = nil
	arenaPool.Put(a)
}

// resize returns s with length n, reusing its backing array when large
// enough so that pooled arenas stop allocating once warm.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (a *arena) bind(ev *mapping.Evaluator) {
	a.ev = ev
	if a.boundTo == ev {
		return // cost tables and transitions are still valid
	}
	a.boundTo = nil // invalidate while rebinding: a panic must not leave stale tables claimed
	a.feasStart = a.feasStart[:0]
	plat := ev.Platform()
	a.n = ev.Pipeline().Stages()
	a.classes = plat.SpeedClasses()
	a.csize = resize(a.csize, a.classes)
	a.radix = resize(a.radix, a.classes)
	a.speed = resize(a.speed, a.classes)
	a.digit = resize(a.digit, a.classes)
	states, trans := 1, 0
	for k := 0; k < a.classes; k++ {
		a.csize[k] = plat.ClassSize(k)
		a.radix[k] = states
		a.speed[k] = plat.ClassSpeed(k)
		a.digit[k] = 0
		states *= a.csize[k] + 1
	}
	for _, c := range a.csize {
		// Digit k is non-zero in c of every c+1 consecutive states.
		trans += states / (c + 1) * c
	}
	a.states = states

	n, nn := a.n, a.n*a.n
	a.cost = resize(a.cost, a.classes*nn)
	a.maxCycle = 0
	for k := 0; k < a.classes; k++ {
		for d := 1; d <= n; d++ {
			for e := d; e <= n; e++ {
				in, comp, out := ev.ClassCycleParts(d, e, k)
				cy := in + comp + out
				a.cost[k*nn+(e-1)*n+(d-1)] = cost{cyc: cy, lat: in + comp}
				if cy > a.maxCycle {
					a.maxCycle = cy
				}
			}
		}
	}

	a.rem = resize(a.rem, n+1)
	a.rem[n] = 0
	for i := 0; i < n; i++ {
		// The same prefix difference the cost tables use, so the bound
		// and the work of any completion share their rounding.
		a.rem[i] = ev.Pipeline().IntervalWork(i+1, n)
	}
	a.togo = resize(a.togo, (a.classes+1)*(n+1))
	noSpare := a.togo[a.classes*(n+1):]
	for i := range noSpare {
		noSpare[i] = math.Inf(1)
	}
	noSpare[n] = 0

	// The states in id order are the values of a mixed-radix counter whose
	// digit k counts class k's processors in use: step the digits instead
	// of dividing the id by every radix.
	a.transOff = resize(a.transOff, states+1)
	a.transClass = resize(a.transClass, trans)
	a.transPrev = resize(a.transPrev, trans)
	a.usage = resize(a.usage, states)
	a.spare = resize(a.spare, states)
	a.fastClass = resize(a.fastClass, states)
	digit, t := a.digit, 0
	for S := 0; S < states; S++ {
		a.transOff[S] = int32(t)
		spare, fast, used := 0.0, a.classes, 0
		for k, u := range digit {
			if u > 0 {
				a.transClass[t] = int8(k)
				a.transPrev[t] = int32(S - a.radix[k])
				t++
			}
			if free := a.csize[k] - u; free > 0 {
				spare += float64(free) * a.speed[k]
				fast = min(fast, k) // classes are numbered fastest-first
			}
			used += u
		}
		a.spare[S], a.fastClass[S], a.usage[S] = spare, int8(fast), int16(used)
		for k := range digit {
			if digit[k] < a.csize[k] {
				digit[k]++
				break
			}
			digit[k] = 0
		}
	}
	a.transOff[states] = int32(t)

	a.f = resize(a.f, (n+1)*states)
	a.back = resize(a.back, (n+1)*states)
	a.spans = resize(a.spans, states)
	a.cursor = resize(a.cursor, a.classes)
	a.boundTo = ev
}

// candidatesBelow collects the interval cycle-times strictly below ceil —
// the only values an optimal period can take, cut where
// sort.SearchFloat64s cuts a sorted set, so a NaN ceil keeps them all —
// into the arena's scratch, unsorted and with repeats. excluded reports
// whether ceil left any out.
func (a *arena) candidatesBelow(ceil float64) (cands []float64, excluded bool) {
	n, nn := a.n, a.n*a.n
	cands = a.cands[:0]
	for k := 0; k < a.classes; k++ {
		// Ends ascend innermost: cycle-times mostly grow with the end, and
		// ascending runs are what the sort handles best.
		for d := 1; d <= n; d++ {
			for e := d; e <= n; e++ {
				c := a.cost[k*nn+(e-1)*n+(d-1)].cyc
				if c >= ceil {
					excluded = true
					continue
				}
				cands = append(cands, c)
			}
		}
	}
	a.cands = cands
	return cands, excluded
}

// sortedCandidates returns every interval cycle-time, sorted and
// deduplicated.
func (a *arena) sortedCandidates() []float64 {
	cands, _ := a.candidatesBelow(math.NaN())
	return sortUnique(cands)
}

// sortUnique sorts cands in place and drops repeats.
func sortUnique(cands []float64) []float64 {
	slices.Sort(cands)
	return slices.Compact(cands)
}

// dpRuns counts table fills, probes included; read through ReadStats.
var dpRuns atomic.Uint64

// Stats is a snapshot of the DP counters since process start.
type Stats struct {
	// SerialRuns counts DP table fills, feasibility probes included.
	SerialRuns uint64 `json:"serial_runs"`
	// ParallelRuns always reads 0: every fill is serial. The field stays
	// because loopbench/metrics.go reads it for the repository
	// benchmark's exact.parallel_runs metric.
	ParallelRuns uint64 `json:"parallel_runs"`
	// MemoHits always reads 0: every run fills the table. The field
	// stays because loopbench/metrics.go reads it for the repository
	// benchmark's exact.memo_hits metric.
	MemoHits uint64 `json:"memo_hits"`
}

// ReadStats returns the current DP counters. They are monotone and
// lock-free; the service /metrics solver section scrapes them.
func ReadStats() Stats {
	return Stats{SerialRuns: dpRuns.Load()}
}

// run executes the compressed DP and returns the optimal objective value
// with its winning final state. For objMinLatency, periodBound is the
// admissibility cutoff on individual cycle-times (slack already applied by
// the caller). ok is false when no complete assignment is feasible, and
// with cut set also when the optimum misses the cut.
//
// The recurrence itself lives in computeRow for the period and in cutRow
// for the latency; a latency run without a cut runs cutRow under a +Inf
// cutoff. States are visited in ascending id order: every predecessor
// S-radix[k] is smaller than S, so its row is complete when read. With a
// cut whose exit is armed, the fill returns at the first final cell that
// meets the cut; otherwise it fills every row and returns the winner,
// lowering the cut to each better final it finds on the way.
func (a *arena) run(obj objective, periodBound float64, cut *latencyCut) (best float64, bestState int, ok bool) {
	dpRuns.Add(1)
	n, states := a.n, a.states
	f := a.f
	f[0] = 0 // f[S=0][i=0]; the rest of row 0 is unreachable
	for i := 1; i <= n; i++ {
		f[i] = inf
	}
	if obj == objMinPeriod {
		for S := 1; S < states; S++ {
			a.computeRow(S)
		}
		return a.merge()
	}
	if cut == nil {
		cut = &latencyCut{bound: math.Inf(1)}
	}
	a.prepareFeasStart(periodBound)
	a.togoBuilt = 1 << a.classes
	a.spans[0] = span{0, 0}
	// Row 0 holds one cell, (0, 0), under the bound every cell meets:
	// S = 0 spares class 0, the fastest. When that cell is pruned, so is
	// every other, and the run has no answer.
	if lim := cut.bound * (1 + cutMargin); lim < math.Inf(1) {
		if a.togoRow(0, periodBound, lim)[0]+cut.tail > lim {
			return inf, 0, false
		}
	}
	// The winning final state, tracked as the rows complete: ascending
	// state order with strict improvement, as merge scans.
	best = inf
	for S := 1; S < states; S++ {
		cut.poll()
		a.cutRow(periodBound, cut.bound*(1+cutMargin), cut.tail, S)
		if int(a.spans[S].last) < n {
			continue // f[S][n] is unreachable, and may be stale
		}
		v := f[S*(n+1)+n]
		if cut.exit && v+cut.tail <= cut.bound {
			return v, S, true
		}
		if v < best {
			best, bestState = v, S
			// Only a later state of strictly smaller value can still
			// win, so the winner so far caps the cut for the rows left.
			cut.bound = min(cut.bound, v+cut.tail)
		}
	}
	// A winner that misses the cut is no answer: its cells may have been
	// pruned.
	return best, bestState, best < inf && best+cut.tail <= cut.bound
}

// prepareFeasStart arms (or disarms) the feasibility-prefix prune for
// one run. Latency runs reject every candidate whose interval cycle
// exceeds the period bound; since the cost tables are start-consecutive
// and interval work only shrinks as the start advances, the rejected
// starts cluster at the front of each (class, end) row. One scan over
// the cost table records where the first admissible start sits (a start
// whose latency term alone exceeds the bound is rejected at every later
// end too, so each class's scan passes it once), and
// every state's inner loop then begins there instead of re-rejecting the
// same prefix — the skipped candidates are exactly those the unpruned
// scan discards, so values, backpointers and tie-breaking are untouched.
// The same scan builds reach, a prefix max over feasStart, which bounds
// the cells each transition visits. A bound that cannot prune (at or
// above every cycle entry) disables both outright so the loose-bound
// solve pays a single comparison. Disarming truncates rather than nils
// the slice: probing runs alternate armed and disarmed bounds, and the
// backing array must survive the disarmed runs for the armed ones to
// stay allocation-free.
func (a *arena) prepareFeasStart(periodBound float64) {
	if periodBound >= a.maxCycle {
		a.feasStart = a.feasStart[:0]
		return
	}
	n, nn := a.n, a.n*a.n
	a.feasStart = resize(a.feasStart, a.classes*n)
	a.reach = resize(a.reach, a.classes*(n+1))
	for k := 0; k < a.classes; k++ {
		reach := a.reach[k*(n+1) : (k+1)*(n+1)]
		for kk := range reach {
			reach[kk] = -1
		}
		// Every start below ls has a latency term above periodBound at
		// this end, hence at every later one (lat grows with the end), and
		// a cycle above it too (a cycle adds the output term).
		ls := 0
		for i := 1; i <= n; i++ {
			base := k*nn + (i-1)*n
			for ls < i && a.cost[base+ls].lat > periodBound {
				ls++
			}
			fs := i // empty admissible window unless a start qualifies
			for kk := ls; kk < i; kk++ {
				if a.cost[base+kk].cyc <= periodBound {
					fs = kk
					reach[kk] = int32(i) // ends ascend: the last write is the max
					break
				}
			}
			a.feasStart[k*n+i-1] = int32(fs)
		}
		for kk := 1; kk <= n; kk++ {
			reach[kk] = max(reach[kk], reach[kk-1])
		}
	}
}

// togoRow returns togo's row for class k in the current latency run,
// building it on its first read, backwards from the last stage:
// togo[k][i] is the least lat[k][i+1..e] + togo[k][e] over the ends e
// whose interval's cycle meets periodBound. lat only grows with the end,
// so the scan stops once lat alone reaches the best found (nothing later
// improves it), exceeds periodBound (no later cycle fits) or exceeds lim,
// the cutoff at that read. The last stop leaves an entry above its true
// value only when that value exceeds lim, and every cell reading such an
// entry is pruned either way: the cutoff only falls, so the kernel's
// decisions are those of the exact table, under lim and any smaller
// cutoff the run polls later.
func (a *arena) togoRow(k int, periodBound, lim float64) []float64 {
	n, nn := a.n, a.n*a.n
	togo := a.togo[k*(n+1) : (k+1)*(n+1)]
	if a.togoBuilt&(1<<k) != 0 {
		return togo
	}
	a.togoBuilt |= 1 << k
	costK := a.cost[k*nn : (k+1)*nn]
	togo[n] = 0
	for i := n - 1; i >= 0; i-- {
		best := math.Inf(1)
		// [i+1..e] on class k is at (e-1)*n + i.
		for e, idx := i+1, i*n+i; e <= n; e, idx = e+1, idx+n {
			c := costK[idx]
			// A cycle is its latency term plus the output term, so once
			// lat alone exceeds periodBound no later end meets it either.
			if c.lat >= best || c.lat > lim || c.lat > periodBound {
				break
			}
			if c.cyc <= periodBound {
				best = min(best, c.lat+togo[e])
			}
		}
		togo[i] = best
	}
	return togo
}

// cutMargin is the relative margin of cutRow's bounds: a cell is pruned
// only when its bound exceeds the cutoff or the spare capacity by this
// factor, far above the rounding of any latency or work sum, so rounding
// can never prune a cell that still finishes within the cutoff.
const cutMargin = 1e-9

// latencyCut arms the pruned kernel for a latency run: only mappings of
// latency v+tail <= bound count, and every cell that can no longer reach
// one is pruned. A cut fill therefore yields the dense fill's optimum,
// winning state and path bit for bit, or nothing.
type latencyCut struct {
	tail  float64 // the trailing δ_n/b term (latencyTail)
	bound float64 // the final-latency cutoff, non-strict
	// inc, when non-nil, is polled before every row; bound keeps the
	// smallest value seen, and a fill without exit also lowers it to the
	// latency of each better final cell it finds.
	inc Incumbent
	// exit stops the fill at the first final cell within bound (a
	// feasibility probe), leaving the later rows stale.
	exit bool
}

func (c *latencyCut) poll() {
	if c.inc != nil {
		if v := c.inc.Best(); v < c.bound {
			c.bound = v
		}
	}
}

// probe is one feasibility test of the min-period bisection: does some
// mapping whose cycle-times all stay within periodBound have latency
// (tail included) within latBound? It is a cut fill with the exit armed.
// Float addition is monotone, so some final cell passes exactly when the
// winner of a full fill would. Speed classes are numbered
// fastest-first, so the states that hold a feasible mapping's fast
// processors are among the first rows filled. When ok, lat is the latency
// of the final cell that passed: the exact value of a state's final
// cell, so the optimum under periodBound is at most lat.
func (a *arena) probe(periodBound, tail, latBound float64) (lat float64, ok bool) {
	v, _, ok := a.run(objMinLatency, periodBound, &latencyCut{tail: tail, bound: latBound, exit: true})
	return v + tail, ok
}

// merge scans a complete period table for the winning final state. The
// scan runs in ascending state order with strict improvement, so ties
// resolve to the smallest state id.
func (a *arena) merge() (best float64, bestState int, ok bool) {
	n := a.n
	best = inf
	for S := 1; S < a.states; S++ {
		if v := a.f[S*(n+1)+n]; v < best {
			best, bestState = v, S
		}
	}
	return best, bestState, best < inf
}

// computeRow fills every cell of state S's row of the period recurrence —
// values and backpointers — reading only predecessor rows (usage level one
// below S's).
//
// f[S][i] is the least period over all assignments of stages 1..i to
// intervals consuming exactly the class-usage vector S; the recurrence
// closes the last interval [kk+1..i] on one processor of any class with a
// spare member. Both f and the cost tables are laid out so the inner loop
// over the last interval's start walks consecutive memory — on
// portfolio-sized instances this cache behaviour, not arithmetic, bounds
// the solve. Candidate enumeration order per cell (transition, then
// start) is unchanged from the row-major formulation, so ties break
// identically and results stay bit-identical.
func (a *arena) computeRow(S int) {
	n, nn := a.n, a.n*a.n
	f, back := a.f, a.back
	rowS := S * (n + 1)
	// A state consuming c processors covers at least c one-stage
	// intervals, so f[S][i] is unreachable (inf) below i = c, and every
	// predecessor row is unreachable below kk = c-1: the cell loops start
	// there, skipping cells the row-major formulation scanned only to
	// reject; the cells below are written unreachable directly.
	cS := int(a.usage[S])
	lim := cS
	if lim > n+1 {
		lim = n + 1
	}
	for i := 0; i < lim; i++ {
		f[rowS+i] = inf
	}
	if cS > n {
		return
	}
	t0, t1 := a.transOff[S], a.transOff[S+1]
	for i := cS; i <= n; i++ {
		bestV := inf
		var bestB int32
		for t := t0; t < t1; t++ {
			k := int(a.transClass[t])
			prevRow := int(a.transPrev[t]) * (n + 1)
			base := k*nn + (i-1)*n // cost[k][kk+1..i] is at base + kk
			lo := cS - 1
			// Sliced windows over the candidate range let the compiler
			// drop the per-element bounds checks of the parallel tables —
			// on portfolio-sized instances this loop is the whole solve.
			fprev := f[prevRow+lo : prevRow+i]
			costs := a.cost[base+lo : base+i]
			for j, fv := range fprev {
				if fv == inf {
					continue
				}
				cand := fv
				if cy := costs[j].cyc; cy > cand {
					cand = cy
				}
				if cand < bestV {
					bestV = cand
					bestB = int32(lo+j)<<classShift | int32(k)
				}
			}
		}
		f[rowS+i] = bestV
		if bestV < inf {
			back[rowS+i] = bestB
		}
	}
}

// cutRow fills state S's row of the latency recurrence: f[S][i] is the
// least latency (tail excluded) of stages 1..i in intervals consuming
// exactly S, every cycle-time within periodBound. It leaves cell (S, i)
// unreachable when no completion of it can meet both bounds.
//
//   - Capacity: every remaining interval's work is at most periodBound ×
//     its processor's speed, so the remaining work rem[i] cannot exceed
//     periodBound × the spare speed of S.
//   - Latency: moving each remaining interval onto the fastest spare
//     class lowers both its cycle and its latency term, so the final
//     latency is at least f + togo[fastClass[S]][i] + tail; it must not
//     exceed lim, the latency cutoff with cutMargin applied. Under a
//     +Inf cutoff this bound never prunes, and togo is not built.
//
// Both bounds are admissible, and consistent: a predecessor's bound never
// exceeds its edge cost plus the cell's bound (its spare processors
// include the edge's and S's own). So every cell that can still finish
// within the cutoff keeps the dense value and backpointer, and candidates
// tied with the one it selects are never pruned. The row records its
// first and last finite cell, and only those windows of its predecessor
// rows are read: the pruned cells are what a bound saves, the windows are
// what turns them into saved time.
//
// The fill is transition-major: each transition (class k, predecessor p)
// visits only the cells its window can reach — past p's first finite
// cell, and up to reach[k][last[p]] — so the per-transition bookkeeping
// is paid once per row, not once per cell. A first pass over S's
// transitions keeps the live ones, those whose predecessor has a finite
// cell, with their windows; the fill then visits only those. Each cell
// still sees its candidates in (transition, start) order with strict
// improvement, so values, backpointers and ties are those of the
// cell-major order. Cells outside the row's span are never read — later
// rows read only the span, and run reads f[S][n] only when the span ends
// there — so a row with no live predecessor costs one pass over its
// transitions and writes nothing but its empty span. The completion
// bound's row is read, and built, only when the row has a finite cell.
func (a *arena) cutRow(periodBound, lim, tail float64, S int) {
	n, nn := a.n, a.n*a.n
	f, back := a.f, a.back
	rowS := S * (n + 1)
	armed := len(a.feasStart) > 0
	// [start, stop] spans the cells some live predecessor's window can
	// reach; start then skips the cells whose remaining work the spare
	// speed cannot carry (rem only falls as i grows).
	var live [maxClasses]liveTrans
	nl := 0
	start, stop := n+1, -1
	for t := a.transOff[S]; t < a.transOff[S+1]; t++ {
		p := a.transPrev[t]
		sp := a.spans[p]
		if sp.first > sp.last {
			continue
		}
		k := int32(a.transClass[t])
		hi := int32(n)
		if armed {
			hi = a.reach[int(k)*(n+1)+int(sp.last)]
		}
		live[nl] = liveTrans{k, p, sp.first, sp.last, hi}
		nl++
		start = min(start, int(sp.first)+1)
		stop = max(stop, int(hi))
	}
	capacity := periodBound * a.spare[S] * (1 + cutMargin)
	for start < n && a.rem[start] > capacity {
		start++
	}
	row := f[rowS : rowS+n+1]
	for i := start; i <= stop; i++ {
		row[i] = inf
	}
	for _, tr := range live[:nl] {
		k, fp, lp := int(tr.k), int(tr.first), int(tr.last)
		hi := min(stop, int(tr.hi))
		var fs []int32
		if armed {
			fs = a.feasStart[k*n : (k+1)*n]
		}
		prev := f[int(tr.p)*(n+1) : int(tr.p)*(n+1)+lp+1]
		costK := a.cost[k*nn : (k+1)*nn]
		for i := max(start, fp+1); i <= hi; i++ {
			lo := fp
			if armed {
				lo = max(lo, int(fs[i-1]))
			}
			end := min(i, lp+1)
			if lo >= end {
				continue
			}
			base := (i - 1) * n // cost[k][kk+1..i] is at base + kk
			fprev := prev[lo:end]
			costs := costK[base+lo : base+end]
			// The cell's best so far is written back unconditionally: an
			// unreachable predecessor (inf, the largest finite float)
			// never improves on it, and a cell no candidate reaches keeps
			// its value and backpointer.
			bestV, bestB := row[i], back[rowS+i]
			for j, fv := range fprev {
				c := costs[j]
				if c.cyc > periodBound {
					continue
				}
				if cand := fv + c.lat; cand < bestV {
					bestV, bestB = cand, int32(lo+j)<<classShift|int32(k)
				}
			}
			row[i], back[rowS+i] = bestV, bestB
		}
	}
	first, last := n+1, -1
	var togo []float64
	for i := start; i <= stop; i++ {
		v := row[i]
		if v == inf {
			continue
		}
		if lim < math.Inf(1) {
			if togo == nil {
				togo = a.togoRow(int(a.fastClass[S]), periodBound, lim)
			}
			if v+togo[i]+tail > lim {
				row[i] = inf
				continue
			}
		}
		first = min(first, i)
		last = i
	}
	a.spans[S] = span{int32(first), int32(last)}
}

// liveTrans is a transition of cutRow's row whose predecessor row p has a
// finite cell: class k, p's first and last finite cells, and hi, the last
// cell of S's row its window can reach.
type liveTrans struct{ k, p, first, last, hi int32 }

// latencyTail is the constant trailing δ_n/b term of the latency: adding
// it to a run(objMinLatency, ·) value yields the mapping's latency, bit
// for bit equal to Evaluator.Latency on the reconstructed mapping.
func (a *arena) latencyTail() float64 {
	_, _, out := a.ev.ClassCycleParts(a.n, a.n, 0)
	return out
}

// reconstruct walks the backpointers from the winning final state and
// materialises the interval list, assigning concrete processor ids: the
// classes recorded along the path take their members in increasing-id
// order, which is valid because same-speed processors are interchangeable.
// The returned slice aliases the arena's scratch buffer — it is consumed
// by mapping.New (which copies) before the next run.
func (a *arena) reconstruct(bestState int) []mapping.Interval {
	a.ivbuf = a.ivbuf[:0]
	i, S := a.n, bestState
	for i > 0 {
		b := a.back[S*(a.n+1)+i]
		prev := int(b >> classShift)
		class := int(b & (1<<classShift - 1))
		a.ivbuf = append(a.ivbuf, mapping.Interval{Start: prev + 1, End: i, Proc: class})
		S -= a.radix[class]
		i = prev
	}
	// Reverse into pipeline order, then swap class indices for member ids.
	for l, r := 0, len(a.ivbuf)-1; l < r; l, r = l+1, r-1 {
		a.ivbuf[l], a.ivbuf[r] = a.ivbuf[r], a.ivbuf[l]
	}
	for k := range a.cursor {
		a.cursor[k] = 0
	}
	plat := a.ev.Platform()
	for j := range a.ivbuf {
		class := a.ivbuf[j].Proc
		a.ivbuf[j].Proc = plat.ClassMember(class, a.cursor[class])
		a.cursor[class]++
	}
	return a.ivbuf
}

// result turns a winning state into a Result with validated mapping and
// recomputed metrics.
func (a *arena) result(bestState int) (Result, error) {
	m, err := mapping.New(a.ev.Pipeline(), a.ev.Platform(), a.reconstruct(bestState))
	if err != nil {
		return Result{}, fmt.Errorf("exact: reconstructed invalid mapping: %w", err)
	}
	return Result{Mapping: m, Metrics: a.ev.Metrics(m)}, nil
}
