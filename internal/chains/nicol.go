package chains

import "math"

// HomogeneousNicol solves the homogeneous chains-to-chains problem exactly
// using Nicol's parametric search (the classic algorithm the survey by
// Pinar and Aykanat [14] builds on): for each candidate position of the
// first interval's end, the greedy probe decides whether the implied
// bottleneck is feasible, and binary search over prefix sums narrows the
// first interval to the optimal cut. It runs in O(n + p²·log²n) after the
// prefix sums — asymptotically far below HomogeneousDP's O(n²·p). The
// search finds HomogeneousDP's optimum exactly (see
// HomogeneousBottleneck), but the returned witness comes from
// HomogeneousProbe, whose Bottleneck re-sums each interval element by
// element; that sum can differ from the prefix-sum difference in the
// last bits.
func HomogeneousNicol(a []float64, p int) (Partition, error) {
	if err := validate(a, p); err != nil {
		return Partition{}, err
	}
	if p > len(a) {
		p = len(a)
	}
	best := nicolSearch(prefixSums(a), p)
	// Materialise a witness partition for the optimal bound.
	part, ok := HomogeneousProbe(a, p, best*(1+1e-15))
	if !ok {
		// Tiny float slack on pathological sums; widen gradually.
		for eps := 1e-12; ; eps *= 10 {
			if part, ok = HomogeneousProbe(a, p, best*(1+eps)); ok {
				break
			}
		}
	}
	return part, nil
}

// HomogeneousBottleneck returns the optimal bottleneck of the homogeneous
// chains-to-chains problem on the array whose prefix sums are pre
// (pre[0] = 0 and pre[i+1] = pre[i] + a[i], a_i ≥ 0, so pre is
// non-decreasing), cut into at most p ≥ 1 intervals. The value is bit
// for bit HomogeneousDP(a, p).Bottleneck, and no partition is built, so
// the search allocates nothing.
//
// Exactness rests on one property: the interval cost pre[j] − pre[i] is
// non-decreasing in j and non-increasing in i, because pre is
// non-decreasing and float subtraction is monotone in each operand. The
// DP's value is the minimum, over partitions, of the largest such
// difference; both searches below return that minimum, itself one of
// the differences, without rounding anything further.
//
//   - p ≥ n: one element per interval is allowed, and any interval
//     covering the element of the largest pre[i+1] − pre[i] costs at least
//     that much, so the optimum is that largest one-element difference.
//   - p < n: Nicol's search (nicolSearch).
func HomogeneousBottleneck(pre []float64, p int) float64 {
	n := len(pre) - 1
	if p < n {
		return nicolSearch(pre, p)
	}
	best := 0.0
	for i := 0; i < n; i++ {
		if c := pre[i+1] - pre[i]; c > best {
			best = c
		}
	}
	return best
}

// nicolSearch returns the optimal bottleneck for prefix sums pre and
// 1 ≤ p ≤ n intervals by Nicol's search. Every candidate it compares is
// the largest of some pre[j] − pre[i] values of one feasible partition,
// and the least of them is the optimum, so the result is exact.
func nicolSearch(pre []float64, p int) float64 {
	n := len(pre) - 1
	best := math.Inf(1)
	// Nicol's observation: in an optimal partition, interval k either
	// realises the bottleneck or stops one element short of doing so.
	// For each k the end of interval k is bisected to the smallest
	// position whose own sum already lets the suffix fit (candidate A:
	// interval k is the bottleneck); the search then pins interval k one
	// element shorter and recurses downstream (candidate B). maxPref
	// carries the loads of the intervals pinned so far, which bound the
	// bottleneck of every candidate built on top of them.
	start := 0
	maxPref := 0.0
	for k := 0; k < p && start < n; k++ {
		remaining := p - k - 1
		if remaining == 0 {
			// Last interval takes the whole suffix.
			if cand := math.Max(maxPref, pre[n]-pre[start]); cand < best {
				best = cand
			}
			break
		}
		// Smallest end j such that bounding by interval k's own sum
		// lets the suffix fit (j = n always qualifies: empty suffix).
		lo, hi := start+1, n
		for lo < hi {
			mid := (lo + hi) / 2
			if fitsFrom(pre, mid, remaining, pre[mid]-pre[start]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		j := lo
		// Candidate A: interval k = [start, j) is the bottleneck.
		if cand := math.Max(maxPref, pre[j]-pre[start]); cand < best {
			best = cand
		}
		// Candidate B: pin interval k one element shorter (but never
		// empty) and continue searching downstream.
		end := j - 1
		if end == start {
			end = start + 1
		}
		if load := pre[end] - pre[start]; load > maxPref {
			maxPref = load
		}
		start = end
	}
	if math.IsInf(best, 1) {
		// Fallback: the whole array in one interval is always feasible.
		best = pre[n]
	}
	return best
}

// fitsFrom reports whether the elements from start on fit into `parts`
// intervals of cost ≤ bound each (greedy, optimal for a fixed bound).
func fitsFrom(pre []float64, start, parts int, bound float64) bool {
	n := len(pre) - 1
	i := start
	for k := 0; k < parts && i < n; k++ {
		// Largest j with pre[j] − pre[i] ≤ bound: binary search.
		lo, hi := i, n
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if pre[mid]-pre[i] <= bound {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if lo == i {
			return false // a single element exceeds the bound
		}
		i = lo
	}
	return i == n
}
