package chains

// HomogeneousBottleneck feeds lowerbound.Period, whose value anchors
// relative batch bounds and sweep grids and so ends up in served answers:
// it must return HomogeneousDP's optimum bit for bit, not within a
// tolerance.

import (
	"math"
	"math/rand"
	"testing"

	"pipesched/internal/workload"
)

// requireBottleneckBits fails unless the value-only search and the DP
// agree bit for bit on a cut into at most p intervals.
func requireBottleneckBits(t *testing.T, a []float64, p int) {
	t.Helper()
	dp, err := HomogeneousDP(a, p)
	if err != nil {
		t.Fatalf("HomogeneousDP(%v, %d): %v", a, p, err)
	}
	if got := HomogeneousBottleneck(prefixSums(a), p); math.Float64bits(got) != math.Float64bits(dp.Bottleneck) {
		t.Fatalf("HomogeneousBottleneck(%v, %d) = %v, HomogeneousDP %v", a, p, got, dp.Bottleneck)
	}
}

// roughArray draws n elements mixing zeros, subnormal and tiny entries,
// ordinary ones and large ones, so prefix sums absorb small elements
// and interval differences round.
func roughArray(r *rand.Rand, n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		switch r.Intn(6) {
		case 0:
			a[i] = 0
		case 1:
			a[i] = math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
		case 2:
			a[i] = r.Float64() * 1e-9
		case 3:
			a[i] = r.Float64() * 1e15
		default:
			a[i] = float64(1+r.Intn(20)) + r.Float64()
		}
	}
	return a
}

// TestHomogeneousBottleneckMatchesDP checks the paper's shapes (E1–E4
// stage works, n 5–40, p 10/100, 50 seeds each) and rough random arrays
// at every p from 1 to n+3.
func TestHomogeneousBottleneckMatchesDP(t *testing.T) {
	cases := 0
	for _, fam := range workload.Families() {
		for _, n := range workload.PaperStages() {
			for _, p := range workload.PaperProcessors() {
				for seed := int64(0); seed < 50; seed++ {
					in := workload.Generate(workload.Config{Family: fam, Stages: n, Processors: p, Seed: 7100 + seed})
					requireBottleneckBits(t, in.App.Works(), p)
					cases++
				}
			}
		}
	}
	r := rand.New(rand.NewSource(7171))
	for trial := 0; trial < 800; trial++ {
		a := roughArray(r, 1+r.Intn(40))
		for p := 1; p <= len(a)+3; p++ {
			requireBottleneckBits(t, a, p)
			cases++
		}
	}
	t.Logf("%d cases bit-equal", cases)
}

// TestHomogeneousBottleneckEdgeCases covers one element, all zeros and
// p ≥ n, where the optimum is the largest one-element prefix difference
// rather than the largest element.
func TestHomogeneousBottleneckEdgeCases(t *testing.T) {
	for _, c := range []struct {
		a []float64
		p int
	}{
		{[]float64{7}, 1},
		{[]float64{7}, 3},
		{[]float64{0, 0, 0}, 2},
		{[]float64{0, 0, 5, 0}, 2},
		{[]float64{2, 2, 2, 2, 2, 2}, 3},
		// 0.1+0.2 rounds up, so pre[2]−pre[1] exceeds a[1] = 0.2.
		{[]float64{0.1, 0.2}, 2},
		{[]float64{1e16, 1, 1, 1}, 4},
	} {
		requireBottleneckBits(t, c.a, c.p)
	}
}

// FuzzChainsBottleneck checks the value-only search against the DP on
// arbitrary arrays: each byte pair of data is one element (the first
// byte picks zero, subnormal, tiny, ordinary or large, the second scales
// it), and p runs from 1 to n+3.
func FuzzChainsBottleneck(f *testing.F) {
	f.Add([]byte{3, 10, 3, 20, 3, 5}, uint8(1))
	f.Add([]byte{0, 0, 1, 9, 4, 200, 2, 3, 3, 255}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, pb uint8) {
		var a []float64
		for i := 0; i+1 < len(data) && len(a) < 64; i += 2 {
			v := float64(data[i+1])
			switch data[i] % 5 {
			case 0:
				a = append(a, 0)
			case 1:
				a = append(a, v*math.SmallestNonzeroFloat64)
			case 2:
				a = append(a, v*1e-9)
			case 3:
				a = append(a, v+float64(data[i])/7)
			default:
				a = append(a, v*1e200)
			}
		}
		if len(a) == 0 {
			return
		}
		requireBottleneckBits(t, a, 1+int(pb)%(len(a)+3))
	})
}
