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
// The workspace (value table, per-class cost tables, transition lists)
// lives in a pooled arena so that repeated solves — portfolio races, batch
// sweeps, the service daemon's cache-miss path, and the incremental
// probing of MinPeriodUnderLatency/ParetoFront — are allocation-free in
// steady state.
//
// Fills compute values only: no fill records which candidate a cell's
// value came from. Bisection probes never read one, and a final fill needs
// it only for the ≤ n cells of its winning path, which reconstruct
// re-derives from the values afterwards.
//
// Latency fills keep only the cells that can matter: a cell that cannot
// finish within the fill's latency cutoff is dropped, and so is a cell
// that a state with one processor fewer already reaches at no greater
// latency (cutRow gives the rules and why the answers stay bit for bit).

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

	f []float64 // DP values, states×(n+1) state-major: f[S*(n+1)+i]
	// fillObj and fillBound are the recurrence and period bound of the
	// last fill, under which reconstruct re-derives its winning path.
	fillObj   objective
	fillBound float64

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
	// live and floor are cutRow's per-row scratch, sized at bind: the
	// row's live transitions (at most one per class), and per cell the
	// least value its live predecessors hold there, inside their spans.
	live  []liveTrans
	floor []float64

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
	a.spans = resize(a.spans, states)
	a.live = resize(a.live, a.classes)
	a.floor = resize(a.floor, n+1)
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
	a.fillObj, a.fillBound = obj, periodBound
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
// scan discards, so values, winning paths and tie-breaking are untouched.
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
// of the final cell that passed, so the optimum under periodBound is at
// most lat. Dominance moves neither that cell nor its value: the probe
// exits at the first state whose dense final cell passes, with the dense
// value. Were a cell on that cell's best path dominated, the dominating
// prefix plus the path's suffix would end one processor short, in a
// smaller state, within the bound: cutRow's winner argument, with the
// first state to pass for the optimal one.
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

// computeRow fills every cell of state S's row of the period recurrence,
// values only, reading only predecessor rows (usage level one below S's).
//
// f[S][i] is the least period over all assignments of stages 1..i to
// intervals consuming exactly the class-usage vector S; the recurrence
// closes the last interval [kk+1..i] on one processor of any class with a
// spare member. Both f and the cost tables are laid out so the inner loop
// over the last interval's start walks consecutive memory — on
// portfolio-sized instances this cache behaviour, not arithmetic, bounds
// the solve. An unreachable predecessor (inf, the largest finite float)
// yields an inf candidate, which never lowers a cell, so the loop needs
// no test for it. The windows are dense and a cell's best rarely falls
// late in them, so the lowering branch predicts well, and its value-only
// form beat a branch-free min chain here; periodStep re-derives the
// winning candidate afterwards.
func (a *arena) computeRow(S int) {
	n, nn := a.n, a.n*a.n
	f := a.f
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
				if cand := max(fv, costs[j].cyc); cand < bestV {
					bestV = cand
				}
			}
		}
		f[rowS+i] = bestV
	}
}

// cutRow fills state S's row of the latency recurrence: f[S][i] is the
// least latency (tail excluded) of stages 1..i in intervals consuming
// exactly S, every cycle-time within periodBound. It leaves cell (S, i)
// unreachable when no completion of it can meet both bounds, or when a
// state with one processor fewer already reaches stage i at no greater
// latency.
//
//   - Capacity: every remaining interval's work is at most periodBound ×
//     its processor's speed, so the remaining work rem[i] cannot exceed
//     periodBound × the spare speed of S.
//   - Latency: moving each remaining interval onto the fastest spare
//     class lowers both its cycle and its latency term, so the final
//     latency is at least f + togo[fastClass[S]][i] + tail; it must not
//     exceed lim, the latency cutoff with cutMargin applied. Under a
//     +Inf cutoff this bound never prunes, and togo is not built.
//   - Dominance: a predecessor p = S - e_k whose cell (p, i) lies inside
//     p's span with f[p][i] <= f[S][i], ties included, makes (S, i)
//     redundant: p covers the same stages at no greater latency and
//     leaves one more processor spare, so every completion of (S, i) is
//     open to (p, i) (Ibaraki, "The power of dominance relations in
//     branch-and-bound algorithms", JACM 24(2), 1977).
//
// The capacity and latency bounds are admissible, and consistent: a
// predecessor's bound never exceeds its edge cost plus the cell's bound
// (its spare processors include the edge's and S's own). A kept cell
// never holds less than its dense value, but it may hold more, when its
// best candidate's cell was dominated. The answers still come out bit
// for bit:
//
//   - Coverage. Take any mapping M within the cut. Every prefix cell
//     (T, i) of M has a kept cell (S, i) with S <= T componentwise and a
//     value no larger. By induction along M: from the kept cell covering
//     M's previous prefix cell, a smaller S leaves a superset of
//     processors spare, so the capacity, reach, feasible-start and togo
//     bounds all admit M's next interval from it, and the cell that
//     interval reaches is kept or dominated by a kept cell of a smaller
//     state. So a probe passes exactly when the dense fill does, and the
//     optimum's value is unchanged.
//   - Winner and path. The dense winner T* is the smallest-id final state
//     of optimal value v*. Were a cell (q, l) on its re-derived path
//     dominated by (q - e_m, l), that cell's dense prefix plus the path's
//     suffix would end in T* - e_m, a smaller id, at latency <= v* (float
//     addition is monotone): a contradiction. So the whole path survives
//     with exact values, and since no value falls below its dense one,
//     run still picks T*. Every other candidate's value can only rise, so
//     latencyStep's first-match re-derivation returns the same path.
//
// Each dominance compare reads only cells inside the predecessor's span,
// all written by this fill; a pruned predecessor cell is inf, so it
// prunes nothing. The row records its first and last finite cell, and
// only those windows of its predecessor rows are read: the pruned cells
// are what the bounds and dominance save, the windows are what turns them
// into saved time.
//
// The fill is transition-major: each transition (class k, predecessor p)
// visits only the cells its window can reach — past p's first finite
// cell, and up to reach[k][last[p]] — so the per-transition bookkeeping
// is paid once per row, not once per cell. A first pass over S's
// transitions keeps the live ones, those whose predecessor has a finite
// cell, with their windows; the fill then visits only those, each in
// fillTrans, and lowers the row's floor, per cell the least value a live
// predecessor holds there inside its span, so that dominance costs the
// span pass one comparison per cell, the same one that skips an
// unreachable cell. Cells outside the row's span are never read — later
// rows read only the span, and run reads f[S][n] only when the span ends
// there — so a row with no live predecessor costs one pass over its
// transitions and writes nothing but its empty span. The completion
// bound's row is read, and built, only when the row has a cell that no
// predecessor dominates.
func (a *arena) cutRow(periodBound, lim, tail float64, S int) {
	n, nn := a.n, a.n*a.n
	f := a.f
	rowS := S * (n + 1)
	armed := len(a.feasStart) > 0
	// [start, stop] spans the cells some live predecessor's window can
	// reach; start then skips the cells whose remaining work the spare
	// speed cannot carry (rem only falls as i grows).
	live := a.live[:0]
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
		live = append(live, liveTrans{k, p, sp.first, sp.last, hi})
		start = min(start, int(sp.first)+1)
		stop = max(stop, int(hi))
	}
	capacity := periodBound * a.spare[S] * (1 + cutMargin)
	for start < n && a.rem[start] > capacity {
		start++
	}
	row, floor := f[rowS:rowS+n+1], a.floor
	for i := start; i <= stop; i++ {
		row[i], floor[i] = inf, inf
	}
	for _, tr := range live {
		k, fp, lp := int(tr.k), int(tr.first), int(tr.last)
		var fs []int32
		if armed {
			fs = a.feasStart[k*n : (k+1)*n]
		}
		prev := f[int(tr.p)*(n+1) : int(tr.p)*(n+1)+lp+1]
		fillTrans(row, prev, a.cost[k*nn:(k+1)*nn], fs, max(start, fp+1), min(stop, int(tr.hi)), fp, periodBound)
		for i := max(start, fp); i <= min(stop, lp); i++ {
			floor[i] = min(floor[i], prev[i])
		}
	}
	first, last := n+1, -1
	var togo []float64
	for i := start; i <= stop; i++ {
		v := row[i]
		if v >= floor[i] {
			row[i] = inf // unreachable (inf), or dominated
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

// fillTrans lowers cells from..hi of a latency row by the candidates of
// one live transition (class k, predecessor p): prev is p's row up to its
// last finite cell, fp its first, costK class k's cost table and fs class
// k's feasible starts (nil when the prune is disarmed). It keeps values
// only, in a running min; latencyStep re-derives the winning candidate
// afterwards. Its own frame keeps the inner loop's index and bounds in
// registers.
func fillTrans(row, prev []float64, costK []cost, fs []int32, from, hi, fp int, periodBound float64) {
	n := len(row) - 1
	for i := from; i <= hi; i++ {
		lo := fp
		if fs != nil {
			lo = max(lo, int(fs[i-1]))
		}
		end := min(i, len(prev))
		if lo >= end {
			continue
		}
		base := (i - 1) * n // cost[k][kk+1..i] is at base + kk
		fprev := prev[lo:end]
		costs := costK[base+lo : base+end]
		costs = costs[:len(fprev)] // one length: the loop below reads costs without a bounds check
		// The cell's best so far is written back unconditionally: an
		// unreachable predecessor (inf, the largest finite float)
		// never lowers it, and a cell no candidate reaches keeps its
		// value.
		best := row[i]
		for j, fv := range fprev {
			if c := costs[j]; c.cyc <= periodBound {
				best = min(best, fv+c.lat)
			}
		}
		row[i] = best
	}
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

// reconstruct re-derives the winning path of the arena's last fill, from
// bestState's final cell back to (0, 0), and materialises the interval
// list, assigning concrete processor ids: the classes recorded along the
// path take their members in increasing-id order, which is valid because
// same-speed processors are interchangeable.
//
// Fills keep values only. At each cell on the path, reconstruct scans the
// candidates the fill combined there, in (transition, start) order, and
// steps to the first whose value equals the cell's bit for bit: the
// candidate a strict-improvement scan in that order would have recorded,
// so the path is the one a backpointer table would hold. The scans read
// the last fill's values and row spans, so reconstruct must run before
// the next fill; a cell that no candidate re-derives is an error. The
// returned slice aliases the arena's scratch buffer — it is consumed by
// mapping.New (which copies) before the next run.
func (a *arena) reconstruct(bestState int) ([]mapping.Interval, error) {
	a.ivbuf = a.ivbuf[:0]
	i, S := a.n, bestState
	for i > 0 {
		var prev, class int
		var ok bool
		if a.fillObj == objMinPeriod {
			prev, class, ok = a.periodStep(S, i)
		} else {
			prev, class, ok = a.latencyStep(S, i)
		}
		if !ok {
			return nil, fmt.Errorf("exact: no candidate re-derives cell (%d, %d) of the winning path", S, i)
		}
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
	return a.ivbuf, nil
}

// periodStep re-derives cell (S, i) of a period fill: the first start kk,
// over S's transitions (class k) in order and the starts computeRow reads
// in ascending order, whose candidate max(f[p][kk], cycle of [kk+1..i]
// on k) equals f[S][i]. Cells on a winning path are finite, and an
// unreachable predecessor's candidate is at least inf, so it never
// matches.
func (a *arena) periodStep(S, i int) (prev, class int, ok bool) {
	n, nn := a.n, a.n*a.n
	v := a.f[S*(n+1)+i]
	for t := a.transOff[S]; t < a.transOff[S+1]; t++ {
		k, p := int(a.transClass[t]), int(a.transPrev[t])
		fprev := a.f[p*(n+1) : p*(n+1)+i]
		costs := a.cost[k*nn+(i-1)*n : k*nn+i*n]
		for kk := int(a.usage[S]) - 1; kk < i; kk++ {
			if max(fprev[kk], costs[kk].cyc) == v {
				return kk, k, true
			}
		}
	}
	return 0, 0, false
}

// latencyStep re-derives cell (S, i) of a latency fill: the first start
// kk, over S's transitions (class k, predecessor p) in order and the
// starts of p's span in ascending order, whose interval [kk+1..i] meets
// the fill's period bound on k and whose candidate f[p][kk] + its latency
// term equals f[S][i]. cutRow reads p's row only within that span, so
// cells outside it, which may be stale, are never read. Its other limits
// need no replay: the starts the feasible-start prune skips, and with
// them every start of a transition past its reach, are starts whose
// cycle exceeds the bound.
func (a *arena) latencyStep(S, i int) (prev, class int, ok bool) {
	n, nn := a.n, a.n*a.n
	v := a.f[S*(n+1)+i]
	for t := a.transOff[S]; t < a.transOff[S+1]; t++ {
		k, p := int(a.transClass[t]), int(a.transPrev[t])
		sp := a.spans[p]
		lo, end := int(sp.first), min(i, int(sp.last)+1)
		fprev := a.f[p*(n+1) : p*(n+1)+n+1]
		costs := a.cost[k*nn+(i-1)*n : k*nn+i*n]
		for kk := lo; kk < end; kk++ {
			if c := costs[kk]; c.cyc <= a.fillBound && fprev[kk]+c.lat == v {
				return kk, k, true
			}
		}
	}
	return 0, 0, false
}

// result turns a winning state into a Result with validated mapping and
// recomputed metrics.
func (a *arena) result(bestState int) (Result, error) {
	ivs, err := a.reconstruct(bestState)
	if err != nil {
		return Result{}, err
	}
	m, err := mapping.New(a.ev.Pipeline(), a.ev.Platform(), ivs)
	if err != nil {
		return Result{}, fmt.Errorf("exact: reconstructed invalid mapping: %w", err)
	}
	return Result{Mapping: m, Metrics: a.ev.Metrics(m)}, nil
}
