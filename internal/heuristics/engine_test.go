package heuristics

import (
	"math"
	"math/rand"
	"testing"
)

// perPartRatio is the legacy engine's ratio: one quotient per part,
// keeping the largest, +Inf as soon as a part fails to undercut the old
// cycle-time by more than the tolerance.
func perPartRatio(oldCycle, dLat float64, n int, cyc *[3]float64) float64 {
	ratio := math.Inf(-1)
	for i := 0; i < n; i++ {
		dp := oldCycle - cyc[i]
		if dp <= relEps*(1+oldCycle) {
			return math.Inf(1)
		}
		if r := dLat / dp; r > ratio {
			ratio = r
		}
	}
	return ratio
}

// TestSplitRatioMatchesPerPartMaximum pins splitRatio's single division
// to the per-part maximum bit for bit, on random parts that include
// ties, parts an ulp apart, parts within the tolerance of the old
// cycle-time, and zero, signed-zero and negative latency changes.
func TestSplitRatioMatchesPerPartMaximum(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	dLats := func() float64 {
		switch r.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return -r.Float64() * 1e-12 // an ulp-scale latency drop
		case 3:
			return -r.Float64() * 5
		default:
			return r.Float64() * 50
		}
	}
	for i := 0; i < 200000; i++ {
		oldCycle := math.Ldexp(1+r.Float64(), r.Intn(20)-5)
		n := 2 + r.Intn(2)
		var cyc [3]float64
		for j := 0; j < n; j++ {
			switch r.Intn(5) {
			case 0:
				if j > 0 {
					cyc[j] = cyc[j-1] // tie
					continue
				}
				cyc[j] = oldCycle * r.Float64()
			case 1:
				if j > 0 {
					cyc[j] = math.Nextafter(cyc[j-1], math.Inf(r.Intn(2)*2-1))
					continue
				}
				cyc[j] = oldCycle * r.Float64()
			case 2:
				cyc[j] = oldCycle * (1 - relEps*r.Float64()*3) // near the tolerance
			default:
				cyc[j] = oldCycle * r.Float64()
			}
		}
		dLat := dLats()
		got := splitRatio(oldCycle, dLat, maxOf(n, &cyc), n, &cyc)
		want := perPartRatio(oldCycle, dLat, n, &cyc)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("oldCycle %v dLat %v parts %v: splitRatio %v != per-part %v", oldCycle, dLat, cyc[:n], got, want)
		}
	}
}
