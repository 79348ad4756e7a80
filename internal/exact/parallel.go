package exact

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Wave-parallel runner for the compressed DP.
//
// The mixed-radix state space is a graded poset: every transition
// S-radix[k] lowers exactly one usage digit, so a state at usage level c
// reads only rows at level c-1. Processing the levels in order with a
// barrier between them therefore preserves the recurrence exactly, while
// the states *within* a level are independent and can be split across
// workers in contiguous strata. Each cell's value is a pure function of
// the completed previous level — computeRow enumerates its candidates in
// the same order as the serial runner — so the filled table, the merge
// scan over it, and every reconstructed mapping are bit-identical to the
// serial path no matter how the strata land on workers. The property
// tests in parallel_test.go pin that equivalence.
//
// Engagement is gated on the state-space size: below the threshold the
// barrier and goroutine overhead dwarf the DP itself, so small instances
// — portfolio races, the service miss path — keep the 2-alloc serial
// path untouched.

// ParallelStateThreshold is the minimum compressed state count
// ∏_k (c_k+1) at which the DP engages the wave-parallel runner. Below
// it the serial, allocation-free path runs. The default was tuned on the
// committed bench instances: the largest serial bench row
// (ExactLargeFewClass, 729 states) must stay serial, while genuinely
// large few-class platforms (tens of thousands of states) gain from
// splitting each usage level across cores. Raise it if your platforms
// are small or your cores few; lower it toward ~1k on wide machines
// where even mid-size tables win. Mutate only from a single goroutine
// (e.g. process start); solvers read it per run.
var ParallelStateThreshold = 4096

// maxDPWorkers caps the worker strata per run: levels narrower than the
// worker count leave strata idle at the barrier, so more workers than
// this buys nothing on realistic class structures.
const maxDPWorkers = 8

// dpStats counts scheduling decisions; read through ReadStats.
var dpStats struct {
	serialRuns   atomic.Uint64
	parallelRuns atomic.Uint64
	strata       atomic.Uint64
	memoHits     atomic.Uint64
}

// Stats is a snapshot of the DP scheduling counters since process start.
type Stats struct {
	// SerialRuns counts DP executions on the serial allocation-free path.
	SerialRuns uint64 `json:"serial_runs"`
	// ParallelRuns counts DP executions that engaged the wave runner.
	ParallelRuns uint64 `json:"parallel_runs"`
	// Strata is the cumulative worker-stratum count across all parallel
	// runs; Strata/ParallelRuns is the mean fan-out per engagement.
	Strata uint64 `json:"strata"`
	// MemoHits counts runs answered from the saturated-bound memo
	// without touching the table.
	MemoHits uint64 `json:"memo_hits"`
}

// ReadStats returns the current scheduling counters. The counters are
// monotone and lock-free; the service /metrics solver section scrapes
// them to show how often the parallel DP engages in production.
func ReadStats() Stats {
	return Stats{
		SerialRuns:   dpStats.serialRuns.Load(),
		ParallelRuns: dpStats.parallelRuns.Load(),
		Strata:       dpStats.strata.Load(),
		MemoHits:     dpStats.memoHits.Load(),
	}
}

// parallelWorkers decides the stratum count for one run: 1 keeps the
// serial path.
func (a *arena) parallelWorkers() int {
	if a.states < ParallelStateThreshold {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > maxDPWorkers {
		w = maxDPWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// spinBarrier is a reusable generation barrier: the last arriver flips
// the generation, everyone else spins (yielding) until it does. Levels
// are microseconds apart, so parking workers on a channel or condvar per
// level would cost more than the level itself; atomics make each crossing
// a handful of nanoseconds and establish the happens-before edge that
// publishes one level's rows to the next.
type spinBarrier struct {
	arrived atomic.Int32
	gen     atomic.Uint32
	total   int32
	// last, when set, runs on the last arriver before it releases the
	// others, so what it writes is visible to every worker past the
	// barrier.
	last func()
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.arrived.Add(1) == b.total {
		if b.last != nil {
			b.last()
		}
		b.arrived.Store(0)
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == g {
		runtime.Gosched()
	}
}

// buildLevels buckets the states by usage count (counting sort, ascending
// state id within a level) and caches the result for the current binding,
// so repeated runs — Pareto probing, bisection — pay for it once.
func (a *arena) buildLevels() {
	if a.levelsFor == a.boundTo && a.levelsFor != nil {
		return
	}
	maxU := 0
	for k := 0; k < a.classes; k++ {
		maxU += a.csize[k]
	}
	a.levelOff = resize(a.levelOff, maxU+2)
	for i := range a.levelOff {
		a.levelOff[i] = 0
	}
	for S := 0; S < a.states; S++ {
		a.levelOff[int(a.usage[S])+1]++
	}
	for u := 1; u <= maxU+1; u++ {
		a.levelOff[u] += a.levelOff[u-1]
	}
	a.levelCur = resize(a.levelCur, maxU+1)
	copy(a.levelCur, a.levelOff[:maxU+1])
	a.levelStates = resize(a.levelStates, a.states)
	for S := 0; S < a.states; S++ {
		u := int(a.usage[S])
		a.levelStates[a.levelCur[u]] = int32(S)
		a.levelCur[u]++
	}
	a.levelsFor = a.boundTo
}

// runParallel fills the DP table level by level, splitting each usage
// level's states into contiguous strata, one per worker. The caller acts
// as worker 0; the others are spawned once per run and live across all
// levels, crossing the spin barrier between them. With a cut, the
// workers share one copy of it: it is polled before the first level and
// then by the last worker to reach each barrier, so every row of a level
// is cut at the same bound and the bound never rises.
func (a *arena) runParallel(obj objective, periodBound float64, cut *latencyCut, workers int) (best float64, bestState int, ok bool) {
	a.freeValid = false // the fill below overwrites the table the memo indexes into
	a.prepareFeasStart(obj, periodBound)
	a.buildLevels()
	n := a.n
	f := a.f
	f[0] = 0 // level 0 is the empty state; the rest of its row is unreachable
	for i := 1; i <= n; i++ {
		f[i] = inf
	}
	levels := len(a.levelOff) - 1
	bar := &spinBarrier{total: int32(workers)}
	pruned := cut != nil
	var c latencyCut // the workers' copy; cut itself must not escape
	if pruned {
		c = *cut
		c.poll()
		bar.last = c.poll
		a.first[0], a.last[0] = 0, 0
	}
	work := func(w int) {
		for lvl := 1; lvl < levels; lvl++ {
			lo, hi := int(a.levelOff[lvl]), int(a.levelOff[lvl+1])
			chunk := (hi - lo + workers - 1) / workers
			s := lo + w*chunk
			e := s + chunk
			if e > hi {
				e = hi
			}
			lim := c.bound * (1 + cutMargin)
			for idx := s; idx < e; idx++ {
				if pruned {
					a.cutRow(periodBound, lim, c.tail, int(a.levelStates[idx]))
				} else {
					a.computeRow(obj, periodBound, int(a.levelStates[idx]))
				}
			}
			bar.wait()
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	if pruned {
		*cut = c
	}
	return a.merge(cut)
}
