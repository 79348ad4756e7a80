// Package chains implements the chains-to-chains (1D partitioning)
// substrate the paper builds on (Section 1 and Section 3): partition an
// array a_1..a_n into at most p intervals of consecutive elements.
//
// In the homogeneous problem the goal is to minimise the largest interval
// sum (identical processors). The paper's heterogeneous generalisation,
// Hetero-1D-Partition, weights interval k by a prescribed value s_σ(k)
// (a processor speed) for some permutation σ and minimises
// max_k Σ_{i∈I_k} a_i / s_σ(k); Theorem 1 proves it NP-complete.
//
// The package provides exact solvers (dynamic programming and Nicol's
// parametric search for the homogeneous case, the latter also as a
// value-only bound; bitmask dynamic programming, exponential in p, for the
// heterogeneous case), probe-based bisection methods and polynomial
// heuristics, all of which the scheduling layers and the test-suite use as
// baselines and cross-checks.
package chains

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Partition is a solution to a 1D partitioning problem: Ends[k] is the
// (exclusive, 0-based) end of interval k, so interval k covers
// a[Ends[k-1]:Ends[k]] with Ends[-1] = 0. Proc[k], when non-nil, names the
// 0-based processor executing interval k in a heterogeneous solution.
type Partition struct {
	Ends       []int   // increasing, last element == n
	Proc       []int   // nil for homogeneous solutions; else len(Ends)
	Bottleneck float64 // the achieved objective value
}

// Intervals returns the number of intervals of the partition.
func (p Partition) Intervals() int { return len(p.Ends) }

// Bounds returns the half-open bounds [start, end) of interval k.
func (p Partition) Bounds(k int) (start, end int) {
	if k > 0 {
		start = p.Ends[k-1]
	}
	return start, p.Ends[k]
}

func (p Partition) String() string {
	return fmt.Sprintf("partition{ends: %v, proc: %v, bottleneck: %g}", p.Ends, p.Proc, p.Bottleneck)
}

var (
	errEmptyArray = errors.New("chains: empty array")
	errNoPart     = errors.New("chains: need at least one interval")
)

func validate(a []float64, p int) error {
	if len(a) == 0 {
		return errEmptyArray
	}
	if p < 1 {
		return errNoPart
	}
	for i, x := range a {
		if x < 0 || x != x {
			return fmt.Errorf("chains: a[%d] = %v is invalid (must be ≥ 0)", i, x)
		}
	}
	return nil
}

func prefixSums(a []float64) []float64 {
	pre := make([]float64, len(a)+1)
	for i, x := range a {
		pre[i+1] = pre[i] + x
	}
	return pre
}

// HomogeneousDP solves the homogeneous chains-to-chains problem exactly by
// dynamic programming in O(n²·p) time: partition a into at most p
// non-empty intervals minimising the largest interval sum.
func HomogeneousDP(a []float64, p int) (Partition, error) {
	if err := validate(a, p); err != nil {
		return Partition{}, err
	}
	n := len(a)
	if p > n {
		p = n // more intervals than elements is useless
	}
	pre := prefixSums(a)
	const inf = math.MaxFloat64
	// f[j][i] = min bottleneck for a[0:i] cut into exactly j intervals.
	f := make([][]float64, p+1)
	cut := make([][]int, p+1)
	for j := range f {
		f[j] = make([]float64, n+1)
		cut[j] = make([]int, n+1)
		for i := range f[j] {
			f[j][i] = inf
		}
	}
	f[0][0] = 0
	for j := 1; j <= p; j++ {
		for i := j; i <= n; i++ {
			for k := j - 1; k < i; k++ {
				if f[j-1][k] == inf {
					continue
				}
				cand := pre[i] - pre[k]
				if f[j-1][k] > cand {
					cand = f[j-1][k]
				}
				if cand < f[j][i] {
					f[j][i] = cand
					cut[j][i] = k
				}
			}
		}
	}
	bestJ, best := 1, f[1][n]
	for j := 2; j <= p; j++ {
		if f[j][n] < best {
			best, bestJ = f[j][n], j
		}
	}
	ends := make([]int, bestJ)
	i := n
	for j := bestJ; j >= 1; j-- {
		ends[j-1] = i
		i = cut[j][i]
	}
	return Partition{Ends: ends, Bottleneck: best}, nil
}

// HomogeneousProbe reports whether a can be cut into at most p intervals
// whose sums do not exceed bound, using the classic greedy left-to-right
// filling (optimal for a fixed bound). It returns the partition when
// feasible.
func HomogeneousProbe(a []float64, p int, bound float64) (Partition, bool) {
	n := len(a)
	var ends []int
	cur := 0.0
	for i := 0; i < n; i++ {
		if a[i] > bound {
			return Partition{}, false
		}
		if cur+a[i] > bound {
			ends = append(ends, i)
			cur = 0
		}
		cur += a[i]
	}
	ends = append(ends, n)
	if len(ends) > p {
		return Partition{}, false
	}
	bott := 0.0
	start := 0
	for _, e := range ends {
		s := 0.0
		for i := start; i < e; i++ {
			s += a[i]
		}
		if s > bott {
			bott = s
		}
		start = e
	}
	return Partition{Ends: ends, Bottleneck: bott}, true
}

// HomogeneousBisect solves the homogeneous problem exactly by searching the
// O(n²) candidate bottleneck values (all interval sums) with the greedy
// probe, in O(n² log n + n²) time after sorting. It must agree with
// HomogeneousDP; having two independent exact algorithms lets the tests
// cross-validate them.
func HomogeneousBisect(a []float64, p int) (Partition, error) {
	if err := validate(a, p); err != nil {
		return Partition{}, err
	}
	n := len(a)
	pre := prefixSums(a)
	cands := make([]float64, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j <= n; j++ {
			cands = append(cands, pre[j]-pre[i])
		}
	}
	sort.Float64s(cands)
	lo, hi := 0, len(cands)-1 // probe(cands[hi]) is feasible: one interval per... not when p < needed; but whole-array sum is always feasible
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := HomogeneousProbe(a, p, cands[mid]); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	part, ok := HomogeneousProbe(a, p, cands[lo])
	if !ok {
		return Partition{}, fmt.Errorf("chains: internal error, final probe at %g failed", cands[lo])
	}
	return part, nil
}

// RecursiveBisection is the classic O(n log n · log p) heuristic for the
// homogeneous problem: split the chain at the point balancing the two
// halves, recursing with half the processors on each side. It is not
// optimal but is a standard fast baseline.
func RecursiveBisection(a []float64, p int) (Partition, error) {
	if err := validate(a, p); err != nil {
		return Partition{}, err
	}
	n := len(a)
	if p > n {
		p = n
	}
	pre := prefixSums(a)
	var ends []int
	var rec func(lo, hi, procs int)
	rec = func(lo, hi, procs int) {
		if procs <= 1 || hi-lo <= 1 {
			ends = append(ends, hi)
			return
		}
		left := procs / 2
		target := pre[lo] + (pre[hi]-pre[lo])*float64(left)/float64(procs)
		// Find the cut closest to target with at least one element
		// and at least procs-left elements remaining on each side.
		cutMin, cutMax := lo+1, hi-1
		if cutMax < cutMin {
			cutMax = cutMin
		}
		cut := sort.Search(hi-lo, func(i int) bool { return pre[lo+i] >= target })
		c := lo + cut
		if c < cutMin {
			c = cutMin
		}
		if c > cutMax {
			c = cutMax
		}
		// c or c-1 may be closer to the balance point.
		if c-1 >= cutMin && math.Abs(pre[c-1]-target) < math.Abs(pre[c]-target) {
			c--
		}
		rec(lo, c, left)
		rec(c, hi, procs-left)
	}
	rec(0, n, p)
	bott := 0.0
	start := 0
	for _, e := range ends {
		if s := pre[e] - pre[start]; s > bott {
			bott = s
		}
		start = e
	}
	return Partition{Ends: ends, Bottleneck: bott}, nil
}

// MaxProcsExact caps the platform sizes accepted by HeterogeneousExact;
// the bitmask dynamic program allocates O(2^p · n) state.
const MaxProcsExact = 16

// HeterogeneousExact solves Hetero-1D-Partition exactly: cut a into at
// most len(speeds) intervals and choose distinct speeds for them so that
// max_k (interval sum / speed) is minimised. The dynamic program runs in
// O(n² · p · 2^p) time and is intended for validation on small instances
// (p ≤ MaxProcsExact enforced).
func HeterogeneousExact(a []float64, speeds []float64) (Partition, error) {
	if err := validate(a, 1); err != nil {
		return Partition{}, err
	}
	p := len(speeds)
	if p == 0 {
		return Partition{}, errors.New("chains: no speeds")
	}
	if p > MaxProcsExact {
		return Partition{}, fmt.Errorf("chains: HeterogeneousExact limited to %d processors, got %d", MaxProcsExact, p)
	}
	for i, s := range speeds {
		if s <= 0 || s != s {
			return Partition{}, fmt.Errorf("chains: speed[%d] = %v invalid", i, s)
		}
	}
	n := len(a)
	pre := prefixSums(a)
	const inf = math.MaxFloat64
	size := 1 << p
	// f[S][i] = min bottleneck covering a[0:i] using exactly the
	// processors in S (one interval each, in chain order).
	f := make([][]float64, size)
	type choice struct{ prevEnd, proc int }
	back := make([][]choice, size)
	for S := range f {
		f[S] = make([]float64, n+1)
		back[S] = make([]choice, n+1)
		for i := range f[S] {
			f[S][i] = inf
		}
	}
	f[0][0] = 0
	for S := 1; S < size; S++ {
		for u := 0; u < p; u++ {
			bit := 1 << u
			if S&bit == 0 {
				continue
			}
			prev := S &^ bit
			for i := 1; i <= n; i++ {
				// Last interval [k, i) on processor u.
				for k := 0; k < i; k++ {
					if f[prev][k] == inf {
						continue
					}
					cand := (pre[i] - pre[k]) / speeds[u]
					if f[prev][k] > cand {
						cand = f[prev][k]
					}
					if cand < f[S][i] {
						f[S][i] = cand
						back[S][i] = choice{prevEnd: k, proc: u}
					}
				}
			}
		}
	}
	best := inf
	bestS := 0
	for S := 1; S < size; S++ {
		if f[S][n] < best {
			best, bestS = f[S][n], S
		}
	}
	if best == inf {
		return Partition{}, errors.New("chains: no feasible partition (internal error)")
	}
	var ends, procs []int
	S, i := bestS, n
	for i > 0 {
		c := back[S][i]
		ends = append(ends, i)
		procs = append(procs, c.proc)
		S &^= 1 << c.proc
		i = c.prevEnd
	}
	reverseInts(ends)
	reverseInts(procs)
	return Partition{Ends: ends, Proc: procs, Bottleneck: best}, nil
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// HeterogeneousProbe reports whether a can be cut into intervals executed
// by distinct speeds with bottleneck ≤ bound, using the fastest-first
// greedy: repeatedly give the fastest unused speed the longest prefix whose
// load does not exceed bound·speed. Greedy feasibility is sufficient but
// not necessary (the problem is NP-hard), so a false answer may be wrong;
// a true answer always comes with a witness partition.
func HeterogeneousProbe(a []float64, speeds []float64, bound float64) (Partition, bool) {
	order := speedOrder(speeds)
	n := len(a)
	var ends, procs []int
	i := 0
	for _, u := range order {
		if i == n {
			break
		}
		cap := bound * speeds[u]
		cur := 0.0
		j := i
		for j < n && cur+a[j] <= cap {
			cur += a[j]
			j++
		}
		if j == i {
			return Partition{}, false // fastest remaining cannot take a single element
		}
		ends = append(ends, j)
		procs = append(procs, u)
		i = j
	}
	if i < n {
		return Partition{}, false
	}
	bott := bottleneck(a, ends, procs, speeds)
	return Partition{Ends: ends, Proc: procs, Bottleneck: bott}, true
}

func bottleneck(a []float64, ends, procs []int, speeds []float64) float64 {
	bott, start := 0.0, 0
	for k, e := range ends {
		s := 0.0
		for i := start; i < e; i++ {
			s += a[i]
		}
		s /= speeds[procs[k]]
		if s > bott {
			bott = s
		}
		start = e
	}
	return bott
}

func speedOrder(speeds []float64) []int {
	order := make([]int, len(speeds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		if speeds[order[i]] != speeds[order[j]] {
			return speeds[order[i]] > speeds[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

// HeterogeneousGreedy is the polynomial heuristic for Hetero-1D-Partition:
// binary search on the bottleneck bound with HeterogeneousProbe, refined by
// a final ordered dynamic program on the processor order the probe
// selected. It returns a feasible (generally sub-optimal) partition.
func HeterogeneousGreedy(a []float64, speeds []float64) (Partition, error) {
	if err := validate(a, 1); err != nil {
		return Partition{}, err
	}
	if len(speeds) == 0 {
		return Partition{}, errors.New("chains: no speeds")
	}
	total := 0.0
	for _, x := range a {
		total += x
	}
	maxSpeed := speeds[speedOrder(speeds)[0]]
	lo, hi := 0.0, total/maxSpeed // everything on the fastest is always feasible
	if hi == 0 {
		hi = 1
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if _, ok := HeterogeneousProbe(a, speeds, mid); ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	part, ok := HeterogeneousProbe(a, speeds, hi)
	if !ok {
		// Fall back to one interval on the fastest speed.
		u := speedOrder(speeds)[0]
		return Partition{Ends: []int{len(a)}, Proc: []int{u}, Bottleneck: total / speeds[u]}, nil
	}
	// Polish: the probe fixed a processor order; re-cut optimally for it.
	if polished, err := HeterogeneousOrderedDP(a, speeds, part.Proc); err == nil && polished.Bottleneck < part.Bottleneck {
		return polished, nil
	}
	return part, nil
}

// HeterogeneousOrderedDP solves the restricted problem in which the
// sequence of processors along the chain is fixed (order lists 0-based
// speed indices; every interval k must use order[k], unused tail entries
// are allowed to stay idle). It runs in O(n² · len(order)) and is optimal
// for the given order.
func HeterogeneousOrderedDP(a []float64, speeds []float64, order []int) (Partition, error) {
	if err := validate(a, 1); err != nil {
		return Partition{}, err
	}
	if len(order) == 0 {
		return Partition{}, errors.New("chains: empty processor order")
	}
	seen := make(map[int]bool)
	for _, u := range order {
		if u < 0 || u >= len(speeds) {
			return Partition{}, fmt.Errorf("chains: order entry %d outside speeds", u)
		}
		if seen[u] {
			return Partition{}, fmt.Errorf("chains: processor %d repeated in order", u)
		}
		seen[u] = true
	}
	n := len(a)
	m := len(order)
	pre := prefixSums(a)
	const inf = math.MaxFloat64
	f := make([][]float64, m+1)
	cut := make([][]int, m+1)
	for j := range f {
		f[j] = make([]float64, n+1)
		cut[j] = make([]int, n+1)
		for i := range f[j] {
			f[j][i] = inf
		}
	}
	f[0][0] = 0
	for j := 1; j <= m; j++ {
		s := speeds[order[j-1]]
		for i := j; i <= n; i++ {
			for k := j - 1; k < i; k++ {
				if f[j-1][k] == inf {
					continue
				}
				cand := (pre[i] - pre[k]) / s
				if f[j-1][k] > cand {
					cand = f[j-1][k]
				}
				if cand < f[j][i] {
					f[j][i] = cand
					cut[j][i] = k
				}
			}
		}
	}
	bestJ, best := 0, inf
	for j := 1; j <= m && j <= n; j++ {
		if f[j][n] < best {
			best, bestJ = f[j][n], j
		}
	}
	if bestJ == 0 {
		return Partition{}, errors.New("chains: ordered DP found no partition (internal error)")
	}
	ends := make([]int, bestJ)
	procs := make([]int, bestJ)
	i := n
	for j := bestJ; j >= 1; j-- {
		ends[j-1] = i
		procs[j-1] = order[j-1]
		i = cut[j][i]
	}
	return Partition{Ends: ends, Proc: procs, Bottleneck: best}, nil
}

// Verify checks that part is a structurally valid partition of a with
// distinct processors (when Proc is set) and that its Bottleneck field
// matches the actual objective value for the given speeds (pass nil speeds
// for the homogeneous objective). It returns a descriptive error otherwise.
func Verify(a []float64, speeds []float64, part Partition) error {
	if len(part.Ends) == 0 {
		return errors.New("chains: partition has no interval")
	}
	prev := 0
	for k, e := range part.Ends {
		if e <= prev || e > len(a) {
			return fmt.Errorf("chains: interval %d has invalid end %d (prev %d, n %d)", k, e, prev, len(a))
		}
		prev = e
	}
	if prev != len(a) {
		return fmt.Errorf("chains: partition covers only %d of %d elements", prev, len(a))
	}
	var bott float64
	if part.Proc != nil {
		if speeds == nil {
			return errors.New("chains: partition names processors but no speeds given")
		}
		if len(part.Proc) != len(part.Ends) {
			return fmt.Errorf("chains: %d processor entries for %d intervals", len(part.Proc), len(part.Ends))
		}
		if len(part.Ends) > len(speeds) {
			return fmt.Errorf("chains: %d intervals but only %d speeds", len(part.Ends), len(speeds))
		}
		seen := make(map[int]bool)
		for _, u := range part.Proc {
			if u < 0 || u >= len(speeds) {
				return fmt.Errorf("chains: processor %d out of range", u)
			}
			if seen[u] {
				return fmt.Errorf("chains: processor %d used twice", u)
			}
			seen[u] = true
		}
		bott = bottleneck(a, part.Ends, part.Proc, speeds)
	} else {
		ones := make([]float64, len(part.Ends))
		procs := make([]int, len(part.Ends))
		for i := range ones {
			ones[i] = 1
			procs[i] = i
		}
		bott = bottleneck(a, part.Ends, procs, ones)
	}
	if math.Abs(bott-part.Bottleneck) > 1e-9*(1+bott) {
		return fmt.Errorf("chains: recorded bottleneck %g differs from actual %g", part.Bottleneck, bott)
	}
	return nil
}
