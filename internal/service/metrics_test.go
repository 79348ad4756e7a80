package service

import (
	"math"
	"sync"
	"testing"
	"time"

	"pipesched/internal/service/cache"
	"pipesched/internal/stats"
)

// TestMetricsMatchWelfordOracle cross-checks the record's moment sums
// against a streaming Welford accumulator: same samples in, same
// mean/min/max/stddev out (to floating-point tolerance).
func TestMetricsMatchWelfordOracle(t *testing.T) {
	m := newMetricsRegistry()
	var w stats.Welford
	durations := []time.Duration{
		1500 * time.Microsecond, 3 * time.Millisecond, 250 * time.Microsecond,
		12 * time.Millisecond, 900 * time.Microsecond, 4200 * time.Microsecond,
	}
	for i, d := range durations {
		m.observe("solve", d, i == 2)
		w.Add(d.Seconds())
	}
	snap := m.snapshot(cache.Stats{}, 1)
	es, ok := snap.Endpoints["solve"]
	if !ok {
		t.Fatalf("no solve endpoint in %+v", snap.Endpoints)
	}
	if es.Requests != uint64(len(durations)) || es.Errors != 1 {
		t.Fatalf("requests/errors = %d/%d, want %d/1", es.Requests, es.Errors, len(durations))
	}
	const tol = 1e-9
	for _, chk := range []struct {
		name      string
		got, want float64
	}{
		{"mean", es.MeanMS, 1000 * w.Mean()},
		{"min", es.MinMS, 1000 * w.Min()},
		{"max", es.MaxMS, 1000 * w.Max()},
		{"stddev", es.StddevMS, 1000 * w.StdDev()},
	} {
		if math.Abs(chk.got-chk.want) > tol*math.Max(1, math.Abs(chk.want)) {
			t.Errorf("%s = %g ms, Welford oracle %g ms", chk.name, chk.got, chk.want)
		}
	}
	if es.P50MS <= 0 || es.P50MS > es.P99MS || es.P99MS > es.MaxMS+tol {
		t.Errorf("quantiles inconsistent: p50 %g, p99 %g, max %g", es.P50MS, es.P99MS, es.MaxMS)
	}
}

// TestMetricsConcurrentObserve hammers one endpoint slot from many
// goroutines under identical samples, so every aggregate is exactly
// predictable: concurrent recording must lose no observation.
func TestMetricsConcurrentObserve(t *testing.T) {
	const (
		workers = 8
		perG    = 2000
	)
	m := newMetricsRegistry()
	d := 2 * time.Millisecond
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.observe("sweep", d, w == 0 && i%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	snap := m.snapshot(cache.Stats{}, 1)
	es := snap.Endpoints["sweep"]
	if es.Requests != workers*perG {
		t.Fatalf("lost observations: %d requests, want %d", es.Requests, workers*perG)
	}
	if es.Errors != perG/2 {
		t.Fatalf("errors = %d, want %d", es.Errors, perG/2)
	}
	wantMS := 1000 * d.Seconds()
	if math.Abs(es.MeanMS-wantMS) > 1e-6 || es.MinMS != wantMS || es.MaxMS != wantMS {
		t.Fatalf("identical samples: mean/min/max = %g/%g/%g, want all %g", es.MeanMS, es.MinMS, es.MaxMS, wantMS)
	}
	if es.StddevMS > 1e-6 {
		t.Fatalf("stddev %g for identical samples, want ~0", es.StddevMS)
	}
	if es.P50MS != wantMS || es.P99MS != wantMS {
		t.Fatalf("quantiles %g/%g, want %g", es.P50MS, es.P99MS, wantMS)
	}
}

// TestMetricsUnknownEndpointIgnored: the endpoint set is static; an
// unknown name must be a no-op, not a panic or a phantom slot.
func TestMetricsUnknownEndpointIgnored(t *testing.T) {
	m := newMetricsRegistry()
	m.observe("bogus", time.Millisecond, false)
	snap := m.snapshot(cache.Stats{}, 1)
	if len(snap.Endpoints) != 0 {
		t.Fatalf("unknown endpoint materialised: %+v", snap.Endpoints)
	}
}

// TestMetricsQuietEndpointsOmitted mirrors the lazy-map behaviour of the
// original registry: endpoints with no traffic do not appear.
func TestMetricsQuietEndpointsOmitted(t *testing.T) {
	m := newMetricsRegistry()
	m.observe("batch", time.Millisecond, false)
	snap := m.snapshot(cache.Stats{}, 1)
	if _, ok := snap.Endpoints["batch"]; !ok {
		t.Fatal("batch traffic not reported")
	}
	for _, quiet := range []string{"solve", "sweep"} {
		if _, ok := snap.Endpoints[quiet]; ok {
			t.Fatalf("%s appeared with no traffic", quiet)
		}
	}
}

// TestMetricsReservoirWraps fills one reservoir past capacity and checks
// the quantiles reflect only retained (recent) samples.
func TestMetricsReservoirWraps(t *testing.T) {
	em := newEndpointMetrics()
	// First reservoirSize samples at 1ms, then a full wrap at 5ms: after
	// the wrap every retained sample is 5ms.
	for i := 0; i < reservoirSize; i++ {
		em.observe(time.Millisecond, false)
	}
	for i := 0; i < reservoirSize; i++ {
		em.observe(5*time.Millisecond, false)
	}
	p50, _, p99 := em.quantiles()
	if p50 != 0.005 || p99 != 0.005 {
		t.Fatalf("post-wrap quantiles %g/%g s, want 0.005/0.005", p50, p99)
	}
}
