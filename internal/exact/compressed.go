package exact

import (
	"fmt"
	"math"
	"sort"
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
// The workspace (value table, backpointers, per-class cycle tables,
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
// Acquire with acquireArena, return with release; between the two, the
// candidate set and all tables are reused across any number of runs.
type arena struct {
	ev *mapping.Evaluator
	// boundTo survives release: when a pooled arena is re-acquired for
	// the evaluator it last served — the portfolio/batch/service steady
	// state — bind skips rebuilding the cost tables, transitions and
	// candidate set entirely. Holding the pointer keeps that evaluator
	// reachable, so pointer identity cannot be recycled under us; the
	// pool's GC-driven eviction bounds how long it is pinned.
	boundTo *mapping.Evaluator
	n       int // pipeline stages
	classes int // distinct speed classes K
	states  int // ∏_k (c_k+1)

	csize []int // csize[k] = c_k
	radix []int // radix[k] = ∏_{j<k} (c_j+1): stride of class k's digit

	// Per-class interval costs, indexed k*n*n + (e-1)*n + (d-1) — end-major,
	// so the DP's inner loop over interval starts reads consecutively.
	// cycle is the full cycle-time of [d..e] on class k; lat is its
	// latency contribution (input + compute terms).
	cycle []float64
	lat   []float64

	// Transitions: for every state S, the classes whose usage digit is
	// non-zero, with the predecessor state S - radix[k]. Built once per
	// bind, shared by all runs.
	transOff   []int32 // transOff[S]..transOff[S+1] indexes the two below
	transClass []int8
	transPrev  []int32
	usage      []int16 // usage[S] = Σ_k digit_k(S): processors consumed by S

	f    []float64 // DP values, states×(n+1) state-major: f[S*(n+1)+i]
	back []int32   // packed backpointers, same shape

	// Bound tables of the pruned latency kernel (cutRow), set at bind.
	// spare[S] is the total speed of the processors S leaves unused and
	// fastInv[S] the reciprocal speed of the fastest of them (0 when S
	// uses every processor). rem[i] is the work of stages i+1..n and
	// nextIn[i] the input term δ_i/b of an interval starting at stage
	// i+1; both are 0 at i = n.
	spare, fastInv []float64
	rem, nextIn    []float64
	// first[S] and last[S] delimit the finite cells of row S after a
	// pruned fill (first > last when the row has none).
	first, last []int32

	cands  []float64          // sorted unique candidate cycle-times (lazy)
	ivbuf  []mapping.Interval // reconstruction scratch
	cursor []int              // per-class member cursor for reconstruction

	// maxCycle (set at bind) is the largest entry of the cycle table;
	// period bounds at or above it cannot prune any candidate, so
	// latency runs under such bounds skip the feasStart precompute.
	// feasStart (set per run by prepareFeasStart) holds, per (class k,
	// interval end i), the first interval start whose cycle meets the
	// run's period bound: because interval work shrinks as the start
	// advances, infeasible starts cluster at the front, and the DP's
	// inner loops skip straight past them. nil disables the prune.
	maxCycle  float64
	feasStart []int32
}

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
		return // tables, transitions and candidates are still valid
	}
	a.boundTo = nil // invalidate while rebinding: a panic must not leave stale tables claimed
	a.feasStart = a.feasStart[:0]
	plat := ev.Platform()
	a.n = ev.Pipeline().Stages()
	a.classes = plat.SpeedClasses()
	a.csize = resize(a.csize, a.classes)
	a.radix = resize(a.radix, a.classes)
	states := 1
	for k := 0; k < a.classes; k++ {
		a.csize[k] = plat.ClassSize(k)
		a.radix[k] = states
		states *= a.csize[k] + 1
	}
	a.states = states

	n, nn := a.n, a.n*a.n
	a.cycle = resize(a.cycle, a.classes*nn)
	a.lat = resize(a.lat, a.classes*nn)
	a.maxCycle = 0
	for k := 0; k < a.classes; k++ {
		for d := 1; d <= n; d++ {
			for e := d; e <= n; e++ {
				in, comp, out := ev.ClassCycleParts(d, e, k)
				idx := k*nn + (e-1)*n + (d - 1)
				cy := in + comp + out
				a.cycle[idx] = cy
				a.lat[idx] = in + comp
				if cy > a.maxCycle {
					a.maxCycle = cy
				}
			}
		}
	}

	a.rem = resize(a.rem, n+1)
	a.nextIn = resize(a.nextIn, n+1)
	a.rem[n], a.nextIn[n] = 0, 0
	for i := 0; i < n; i++ {
		// The same prefix difference the cost tables use, so the bound
		// and the work of any completion share their rounding.
		a.rem[i] = ev.Pipeline().IntervalWork(i+1, n)
		a.nextIn[i], _, _ = ev.ClassCycleParts(i+1, i+1, 0)
	}

	a.transOff = resize(a.transOff, states+1)
	a.transClass = a.transClass[:0]
	a.transPrev = a.transPrev[:0]
	a.usage = resize(a.usage, states)
	a.usage[0] = 0
	a.spare = resize(a.spare, states)
	a.fastInv = resize(a.fastInv, states)
	for S := 0; S < states; S++ {
		a.transOff[S] = int32(len(a.transClass))
		spare, fastInv := 0.0, 0.0
		for k := 0; k < a.classes; k++ {
			used := (S / a.radix[k]) % (a.csize[k] + 1)
			if used > 0 {
				a.transClass = append(a.transClass, int8(k))
				a.transPrev = append(a.transPrev, int32(S-a.radix[k]))
			}
			if free := a.csize[k] - used; free > 0 {
				speed := plat.ClassSpeed(k)
				spare += float64(free) * speed
				if fastInv == 0 { // classes are numbered fastest-first
					fastInv = 1 / speed
				}
			}
		}
		a.spare[S], a.fastInv[S] = spare, fastInv
		if S > 0 {
			// Every transition consumes one processor: derive the usage
			// count from any predecessor (the last recorded one).
			a.usage[S] = a.usage[a.transPrev[len(a.transPrev)-1]] + 1
		}
	}
	a.transOff[states] = int32(len(a.transClass))

	a.f = resize(a.f, (n+1)*states)
	a.back = resize(a.back, (n+1)*states)
	a.first = resize(a.first, states)
	a.last = resize(a.last, states)
	a.cursor = resize(a.cursor, a.classes)
	a.cands = a.cands[:0]
	a.boundTo = ev
}

// candidates returns the sorted, deduplicated set of interval cycle-times
// — the only values an optimal period can take. It is computed on first
// use and cached on the arena, so the bound probing of
// MinPeriodUnderLatency and ParetoFront pays for it exactly once.
func (a *arena) candidates() []float64 {
	if len(a.cands) > 0 {
		return a.cands
	}
	n, nn := a.n, a.n*a.n
	for k := 0; k < a.classes; k++ {
		for d := 1; d <= n; d++ {
			for e := d; e <= n; e++ {
				a.cands = append(a.cands, a.cycle[k*nn+(e-1)*n+(d-1)])
			}
		}
	}
	sort.Float64s(a.cands)
	uniq := a.cands[:1]
	for _, c := range a.cands[1:] {
		if c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	a.cands = uniq
	return a.cands
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
// The recurrence itself lives in computeRow (cutRow for a latency run
// with a cut). States are visited in ascending id order: every
// predecessor S-radix[k] is smaller than S, so its row is complete when
// read. With a cut whose exit is armed, the fill returns at the first
// final cell that meets the cut; only when no cell does it reach the
// merge.
func (a *arena) run(obj objective, periodBound float64, cut *latencyCut) (best float64, bestState int, ok bool) {
	dpRuns.Add(1)
	a.prepareFeasStart(obj, periodBound)
	n, states := a.n, a.states
	f := a.f
	f[0] = 0 // f[S=0][i=0]; the rest of row 0 is unreachable
	for i := 1; i <= n; i++ {
		f[i] = inf
	}
	if cut == nil {
		for S := 1; S < states; S++ {
			a.computeRow(obj, periodBound, S)
		}
		return a.merge(nil)
	}
	a.first[0], a.last[0] = 0, 0
	for S := 1; S < states; S++ {
		cut.poll()
		a.cutRow(periodBound, cut.bound*(1+cutMargin), cut.tail, S)
		if cut.exit {
			if v := f[S*(n+1)+n]; v < inf && v+cut.tail <= cut.bound {
				return v, S, true
			}
		}
	}
	return a.merge(cut)
}

// prepareFeasStart arms (or disarms) the feasibility-prefix prune for
// one run. Latency runs reject every candidate whose interval cycle
// exceeds the period bound; since the cost tables are start-consecutive
// and interval work only shrinks as the start advances, the rejected
// starts cluster at the front of each (class, end) row. One scan over
// the cycle table records where the first admissible start sits, and
// every state's inner loop then begins there instead of re-rejecting the
// same prefix — the skipped candidates are exactly those the unpruned
// scan discards, so values, backpointers and tie-breaking are untouched.
// Bounds that cannot prune (period runs, or a bound at or above every
// cycle entry) disable the prune outright so the common loose-bound
// solve pays a single comparison. Disarming truncates rather than nils
// the slice: probing runs alternate armed and disarmed bounds, and the
// backing array must survive the disarmed runs for the armed ones to
// stay allocation-free.
func (a *arena) prepareFeasStart(obj objective, periodBound float64) {
	if obj != objMinLatency || periodBound >= a.maxCycle {
		a.feasStart = a.feasStart[:0]
		return
	}
	n, nn := a.n, a.n*a.n
	a.feasStart = resize(a.feasStart, a.classes*n)
	for k := 0; k < a.classes; k++ {
		for i := 1; i <= n; i++ {
			base := k*nn + (i-1)*n
			fs := i // empty admissible window unless a start qualifies
			for kk := 0; kk < i; kk++ {
				if a.cycle[base+kk] <= periodBound {
					fs = kk
					break
				}
			}
			a.feasStart[k*n+i-1] = int32(fs)
		}
	}
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
	// smallest value seen.
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
// merged optimum of a full fill would. Speed classes are numbered
// fastest-first, so the states that hold a feasible mapping's fast
// processors are among the first rows filled.
func (a *arena) probe(periodBound, tail, latBound float64) bool {
	_, _, ok := a.run(objMinLatency, periodBound, &latencyCut{tail: tail, bound: latBound, exit: true})
	return ok
}

// merge scans the complete table for the winning final state. The scan
// runs in ascending state order with strict improvement, so ties resolve
// to the smallest state id. A winner that misses the cut is no answer:
// its cells may have been pruned.
func (a *arena) merge(cut *latencyCut) (best float64, bestState int, ok bool) {
	n := a.n
	best = inf
	for S := 1; S < a.states; S++ {
		if v := a.f[S*(n+1)+n]; v < best {
			best, bestState = v, S
		}
	}
	return best, bestState, best < inf && (cut == nil || best+cut.tail <= cut.bound)
}

// computeRow fills every cell of state S's row — values and backpointers —
// reading only predecessor rows (usage level one below S's).
//
// f[S][i] is the best value over all assignments of stages 1..i to
// intervals consuming exactly the class-usage vector S; the recurrence
// closes the last interval [kk+1..i] on one processor of any class with a
// spare member. Both f and the cost tables are laid out so the inner loop
// over the last interval's start walks consecutive memory — on
// portfolio-sized instances this cache behaviour, not arithmetic, bounds
// the solve. Candidate enumeration order per cell (transition, then
// start) is unchanged from the row-major formulation, so ties break
// identically and results stay bit-identical.
func (a *arena) computeRow(obj objective, periodBound float64, S int) {
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
			base := k*nn + (i-1)*n // cycle[k][kk+1..i] is at base + kk
			lo := cS - 1
			if obj == objMinPeriod {
				// Sliced windows over the candidate range let the
				// compiler drop the per-element bounds checks of the
				// three parallel tables — on portfolio-sized instances
				// this loop is the whole solve.
				fprev := f[prevRow+lo : prevRow+i]
				cyc := a.cycle[base+lo : base+i]
				for j, fv := range fprev {
					if fv == inf {
						continue
					}
					cand := fv
					if cy := cyc[j]; cy > cand {
						cand = cy
					}
					if cand < bestV {
						bestV = cand
						bestB = int32(lo+j)<<classShift | int32(k)
					}
				}
			} else {
				if len(a.feasStart) > 0 {
					// Skip the scanned-infeasible prefix: every entry
					// before feasStart was rejected against this run's
					// period bound by prepareFeasStart, exactly as the
					// in-loop check below would reject it.
					if fs := int(a.feasStart[k*n+i-1]); fs > lo {
						lo = fs
					}
				}
				fprev := f[prevRow+lo : prevRow+i]
				cyc := a.cycle[base+lo : base+i]
				lats := a.lat[base+lo : base+i]
				for j, fv := range fprev {
					if fv == inf {
						continue
					}
					if cyc[j] > periodBound {
						continue
					}
					if cand := fv + lats[j]; cand < bestV {
						bestV = cand
						bestB = int32(lo+j)<<classShift | int32(k)
					}
				}
			}
		}
		f[rowS+i] = bestV
		if bestV < inf {
			back[rowS+i] = bestB
		}
	}
}

// cutRow is computeRow's latency recurrence under a cut: it leaves cell
// (S, i) unreachable when no completion of it can meet both bounds.
//
//   - Capacity: every remaining interval's work is at most periodBound ×
//     its processor's speed, so the remaining work rem[i] cannot exceed
//     periodBound × the spare speed of S.
//   - Latency: the next interval pays δ_i/b, and the remaining work runs
//     no faster than on the fastest spare class, so the final latency is
//     at least f + nextIn[i] + rem[i]×fastInv[S] + tail; it must not
//     exceed lim, the latency cutoff with cutMargin applied.
//
// Both bounds are admissible, and consistent: a predecessor's bound never
// exceeds its edge cost plus the cell's bound (spare capacity only grows
// going back). So every cell that can still finish within the cutoff
// keeps the dense value and backpointer, and candidates tied with the
// one it selects are never pruned. The row records its first and last
// finite cell, and only those windows of its predecessor rows are read:
// the pruned cells are what a bound saves, the windows are what turns
// them into saved time.
func (a *arena) cutRow(periodBound, lim, tail float64, S int) {
	n, nn := a.n, a.n*a.n
	f, back := a.f, a.back
	rowS := S * (n + 1)
	cS := int(a.usage[S])
	t0, t1 := a.transOff[S], a.transOff[S+1]
	// The first cell that can be finite: past the usage floor and some
	// predecessor's first finite cell, and where the spare speed can
	// carry the remaining work (rem only falls as i grows).
	start := n + 1
	if cS <= n {
		for t := t0; t < t1; t++ {
			start = min(start, int(a.first[a.transPrev[t]])+1)
		}
		start = max(start, cS)
		capacity := periodBound * a.spare[S] * (1 + cutMargin)
		for start < n && a.rem[start] > capacity {
			start++
		}
	}
	for i := 0; i < start && i <= n; i++ {
		f[rowS+i] = inf
	}
	first, last := n+1, -1
	fastInv := a.fastInv[S]
	for i := start; i <= n; i++ {
		bestV := inf
		var bestB int32
		for t := t0; t < t1; t++ {
			k := int(a.transClass[t])
			p := int(a.transPrev[t])
			prevRow := p * (n + 1)
			base := k*nn + (i-1)*n // cycle[k][kk+1..i] is at base + kk
			lo := max(cS-1, int(a.first[p]))
			if len(a.feasStart) > 0 {
				lo = max(lo, int(a.feasStart[k*n+i-1]))
			}
			hi := min(i, int(a.last[p])+1)
			if lo >= hi {
				continue
			}
			fprev := f[prevRow+lo : prevRow+hi]
			cyc := a.cycle[base+lo : base+hi]
			lats := a.lat[base+lo : base+hi]
			for j, fv := range fprev {
				if fv == inf || cyc[j] > periodBound {
					continue
				}
				if cand := fv + lats[j]; cand < bestV {
					bestV = cand
					bestB = int32(lo+j)<<classShift | int32(k)
				}
			}
		}
		if bestV < inf && bestV+a.nextIn[i]+a.rem[i]*fastInv+tail > lim {
			bestV = inf
		}
		f[rowS+i] = bestV
		if bestV < inf {
			back[rowS+i] = bestB
			first = min(first, i)
			last = i
		}
	}
	a.first[S], a.last[S] = int32(first), int32(last)
}

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
