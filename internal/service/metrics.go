package service

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipesched/internal/exact"
	"pipesched/internal/service/cache"
)

// Serving metrics. The registry holds one fixed record per endpoint (the
// endpoint set is static — solve, batch, sweep), each a mutex-guarded
// set of counters and moment sums (count, sum, sum of squares, min, max)
// plus a ring of recent latency samples. Recording one finished request
// takes the record's lock once, with no maps and no allocations; GET
// /metrics copies the record under the same lock and computes the
// snapshot outside it. The moment sums reproduce the mean/min/max/stddev
// snapshot fields of a Welford accumulator; the ring adds tail quantiles.

// reservoirSize bounds the per-endpoint latency ring.
const reservoirSize = 256

// endpointMetrics is one endpoint's record.
type endpointMetrics struct {
	mu       sync.Mutex
	requests uint64
	errors   uint64
	sum      float64 // seconds
	sumSq    float64 // seconds²
	min, max float64 // seconds; ±Inf before the first request
	// reservoir holds the most recent latency samples in seconds; sample
	// k (0-based, counted over all requests) sits at k % reservoirSize.
	reservoir [reservoirSize]float64
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{min: math.Inf(1), max: math.Inf(-1)}
}

// observe records one finished request.
func (em *endpointMetrics) observe(d time.Duration, failed bool) {
	sec := d.Seconds()
	em.mu.Lock()
	em.reservoir[em.requests%reservoirSize] = sec
	em.requests++
	if failed {
		em.errors++
	}
	em.sum += sec
	em.sumSq += sec * sec
	em.min = min(em.min, sec)
	em.max = max(em.max, sec)
	em.mu.Unlock()
}

// quantiles returns the nearest-rank p50/p95/p99 of the retained samples
// (zeros before the first request).
func (em *endpointMetrics) quantiles() (p50, p95, p99 float64) {
	em.mu.Lock()
	samples := make([]float64, min(em.requests, reservoirSize))
	copy(samples, em.reservoir[:])
	em.mu.Unlock()
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(samples)
	at := func(q float64) float64 {
		// Nearest-rank: ⌈q·n⌉ keeps p99 at the max for small samples
		// instead of dipping below it.
		idx := int(math.Ceil(q*float64(len(samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		return samples[idx]
	}
	return at(0.50), at(0.95), at(0.99)
}

// endpointNames is the static endpoint set; the slot order is the wire
// order of the /metrics map keys' slots (the JSON map itself is
// unordered).
var endpointNames = [...]string{"solve", "batch", "sweep"}

// metricsRegistry holds the per-endpoint slots plus the in-flight gauge.
// Cache counters live in the cache itself; the registry only snapshots
// them.
type metricsRegistry struct {
	start     time.Time
	inFlight  atomic.Int64
	endpoints [len(endpointNames)]*endpointMetrics
}

func newMetricsRegistry() *metricsRegistry {
	m := &metricsRegistry{start: time.Now()}
	for i := range m.endpoints {
		m.endpoints[i] = newEndpointMetrics()
	}
	return m
}

// slot maps an endpoint name onto its fixed slot. The set is static, so
// the lookup is a handful of pointer-free comparisons — no map, no hash.
func (m *metricsRegistry) slot(endpoint string) *endpointMetrics {
	for i, name := range endpointNames {
		if name == endpoint {
			return m.endpoints[i]
		}
	}
	return nil
}

// observe records one finished request on the endpoint's slot.
func (m *metricsRegistry) observe(endpoint string, d time.Duration, failed bool) {
	if em := m.slot(endpoint); em != nil {
		em.observe(d, failed)
	}
}

// EndpointSnapshot is the JSON form of one endpoint's latency summary.
type EndpointSnapshot struct {
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	MeanMS   float64 `json:"mean_ms"`
	MinMS    float64 `json:"min_ms"`
	MaxMS    float64 `json:"max_ms"`
	StddevMS float64 `json:"stddev_ms"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// CacheSnapshot is the JSON form of the cache counters.
type CacheSnapshot struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Collapsed uint64  `json:"collapsed"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Shards    int     `json:"shards"`
	HitRate   float64 `json:"hit_rate"`
}

// SolverSnapshot is the JSON form of the solver-side counters: how many
// exact DP table fills ran, feasibility probes included (process-wide,
// since the counter is package state; parallel_runs and memo_hits always
// read 0), and how the evaluator intern table is doing. Intern misses
// dominating hits means the platform working set exceeds the intern
// capacity.
type SolverSnapshot struct {
	DP           exact.Stats `json:"dp"`
	InternHits   uint64      `json:"intern_hits"`
	InternMisses uint64      `json:"intern_misses"`
}

// MetricsSnapshot is the body served by GET /metrics. Cluster is present
// only in peer mode.
type MetricsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	InFlight      int64                       `json:"in_flight"`
	Cache         CacheSnapshot               `json:"cache"`
	Solver        SolverSnapshot              `json:"solver"`
	Cluster       *ClusterMetricsSnapshot     `json:"cluster,omitempty"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
}

// snapshot reads every endpoint record into the scrape view. Only
// endpoints that have seen traffic appear.
func (m *metricsRegistry) snapshot(cs cache.Stats, shards int) MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      m.inFlight.Load(),
		Endpoints:     make(map[string]EndpointSnapshot, len(endpointNames)),
		Cache: CacheSnapshot{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Collapsed: cs.Collapsed,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
			Shards:    shards,
		},
	}
	if total := cs.Hits + cs.Misses + cs.Collapsed; total > 0 {
		snap.Cache.HitRate = float64(cs.Hits+cs.Collapsed) / float64(total)
	}
	for i, name := range endpointNames {
		em := m.endpoints[i]
		em.mu.Lock()
		n, errs, sum, sumSq, lo, hi := em.requests, em.errors, em.sum, em.sumSq, em.min, em.max
		em.mu.Unlock()
		if n == 0 {
			continue
		}
		mean := sum / float64(n)
		es := EndpointSnapshot{
			Requests: n,
			Errors:   errs,
			MeanMS:   1000 * mean,
			MinMS:    1000 * lo,
			MaxMS:    1000 * hi,
		}
		if n > 1 {
			// Sample variance from raw moments; clamp the cancellation
			// error that can drive it a hair negative.
			varc := (sumSq - float64(n)*mean*mean) / float64(n-1)
			es.StddevMS = 1000 * math.Sqrt(math.Max(varc, 0))
		}
		p50, p95, p99 := em.quantiles()
		es.P50MS, es.P95MS, es.P99MS = 1000*p50, 1000*p95, 1000*p99
		snap.Endpoints[name] = es
	}
	return snap
}
