package service

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"time"

	"pipesched/internal/exact"
	"pipesched/internal/service/cache"
)

// Serving metrics, built for the request hot path: recording one finished
// request takes a handful of atomic operations and no locks, no maps and
// no allocations. The registry holds one fixed slot per endpoint (the
// endpoint set is static — solve, batch, sweep), each slot a set of
// cache-line-padded stripes of atomic moment accumulators plus a
// lock-free reservoir ring of recent latency samples. Stripes spread
// concurrent writers so heavy traffic does not serialise on one
// contended word; everything is merged only at GET /metrics scrape time,
// which is off the hot path by construction.
//
// The previous implementation — one mutex around a map of Welford
// accumulators — serialised every finished request against every other
// and against every scrape. The moment sums kept here (count, sum, sum
// of squares, min, max) reproduce the same mean/min/max/stddev snapshot
// fields; the reservoir adds tail quantiles the Welford form could not
// provide.

// metricStripes spreads concurrent observers; a small power of two is
// enough, since each observation touches one stripe for a few dozen ns.
const metricStripes = 8

// reservoirSize bounds the per-endpoint latency reservoir. Power of two,
// so the write cursor wraps with a mask.
const reservoirSize = 256

// latencyStripe is one padded stripe of moment accumulators. Sums are
// float64 bit patterns updated by CAS; min/max likewise. Padding keeps
// two stripes from sharing a cache line, which would reintroduce the
// very contention striping removes.
type latencyStripe struct {
	count atomic.Uint64
	sum   atomic.Uint64 // float64 bits, seconds
	sumSq atomic.Uint64 // float64 bits, seconds²
	min   atomic.Uint64 // float64 bits; math.Inf(1) when empty
	max   atomic.Uint64 // float64 bits; math.Inf(-1) when empty
	_     [24]byte      // pad the struct to 64 bytes
}

// addFloat atomically adds v to the float64 stored as bits in a.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// minFloat atomically lowers the float64 stored in a to v if smaller.
func minFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// maxFloat atomically raises the float64 stored in a to v if larger.
func maxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// endpointMetrics is one endpoint's slot: request/error counters, moment
// stripes and the latency reservoir.
type endpointMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	stripes  [metricStripes]latencyStripe
	// reservoir is a wrapping ring of the most recent latency samples
	// (float64 seconds as bits). Writers claim slots with one atomic
	// increment; readers snapshot whatever is there. A torn read is
	// impossible (64-bit atomic), a stale one is harmless — the ring is
	// a statistical sample, not a ledger.
	cursor    atomic.Uint64
	reservoir [reservoirSize]atomic.Uint64
}

func newEndpointMetrics() *endpointMetrics {
	em := &endpointMetrics{}
	for i := range em.stripes {
		em.stripes[i].min.Store(math.Float64bits(math.Inf(1)))
		em.stripes[i].max.Store(math.Float64bits(math.Inf(-1)))
	}
	return em
}

// observe records one finished request: two counter increments, one
// striped moment update and one reservoir write — all atomic, no locks.
func (em *endpointMetrics) observe(d time.Duration, failed bool) {
	em.requests.Add(1)
	if failed {
		em.errors.Add(1)
	}
	sec := d.Seconds()
	// rand.Uint64 draws from the runtime's per-thread generator: cheap,
	// allocation-free, and uncorrelated with the request stream, so
	// concurrent observers scatter across stripes even when goroutines
	// are pinned.
	st := &em.stripes[rand.Uint64()&(metricStripes-1)]
	st.count.Add(1)
	addFloat(&st.sum, sec)
	addFloat(&st.sumSq, sec*sec)
	minFloat(&st.min, sec)
	maxFloat(&st.max, sec)
	slot := em.cursor.Add(1) - 1
	em.reservoir[slot&(reservoirSize-1)].Store(math.Float64bits(sec))
}

// merge folds every stripe into one moment set.
func (em *endpointMetrics) merge() (n uint64, sum, sumSq, min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for i := range em.stripes {
		st := &em.stripes[i]
		n += st.count.Load()
		sum += math.Float64frombits(st.sum.Load())
		sumSq += math.Float64frombits(st.sumSq.Load())
		min = math.Min(min, math.Float64frombits(st.min.Load()))
		max = math.Max(max, math.Float64frombits(st.max.Load()))
	}
	return n, sum, sumSq, min, max
}

// quantiles snapshots the reservoir and returns the p50/p95/p99 of the
// retained samples (zeros before the first request).
func (em *endpointMetrics) quantiles() (p50, p95, p99 float64) {
	filled := em.cursor.Load()
	if filled == 0 {
		return 0, 0, 0
	}
	if filled > reservoirSize {
		filled = reservoirSize
	}
	samples := make([]float64, filled)
	for i := range samples {
		samples[i] = math.Float64frombits(em.reservoir[i].Load())
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

// snapshot merges every stripe and reservoir into the scrape view. Only
// endpoints that have seen traffic appear, matching the lazy-map
// behaviour of the original registry.
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
		requests := em.requests.Load()
		if requests == 0 {
			continue
		}
		es := EndpointSnapshot{Requests: requests, Errors: em.errors.Load()}
		if n, sum, sumSq, min, max := em.merge(); n > 0 {
			mean := sum / float64(n)
			es.MeanMS = 1000 * mean
			es.MinMS = 1000 * min
			es.MaxMS = 1000 * max
			if n > 1 {
				// Sample variance from raw moments; clamp the
				// cancellation error that can drive it a hair negative.
				varc := (sumSq - float64(n)*mean*mean) / float64(n-1)
				es.StddevMS = 1000 * math.Sqrt(math.Max(varc, 0))
			}
			p50, p95, p99 := em.quantiles()
			es.P50MS, es.P95MS, es.P99MS = 1000*p50, 1000*p95, 1000*p99
		}
		snap.Endpoints[name] = es
	}
	return snap
}
