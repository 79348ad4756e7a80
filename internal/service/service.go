// Package service is the serving layer of the reproduction: a long-lived
// HTTP daemon exposing the paper's solvers — heuristics H1–H6, the exact
// DP and the concurrent portfolio/batch engine of internal/portfolio —
// over a JSON API.
//
// # Fully heterogeneous serving
//
// Every endpoint accepts both platform kinds and dispatches by
// capability: comm-homogeneous requests race the paper's H1–H6 (plus the
// exact DP where eligible), fully heterogeneous ones race the
// free-processor-choice F lane (F1 period-side, F5/F6 latency-side) —
// no servable input can reach a solver panic (a fuzz target pins this).
// The canonical cache key covers the platform kind and, on fully
// heterogeneous platforms, every per-link bandwidth, so two platforms
// differing in a single link can never share a cache entry. The one
// fullhet restriction is mode "exact": the DP's speed-class compression
// does not extend to per-link bandwidths, so that combination is a 400.
//
// Endpoints:
//
//	POST /v1/solve   one instance, period- or latency-constrained
//	POST /v1/batch   a slice of instances through the batch engine
//	POST /v1/sweep   the heuristic Pareto frontier of one instance
//	GET  /healthz    liveness
//	GET  /metrics    cache counters, in-flight gauge, per-endpoint latencies
//
// Every cacheable request is canonically hashed (see canon.go) into a
// sharded, bounded LRU with singleflight deduplication: concurrent
// identical requests collapse to one solve, repeated ones are served from
// memory. The hot path is built for high QPS: requests decode into pooled
// wire scratch, keys come from pooled hashers, the cache shards by key
// bits so cores do not serialise on one mutex, each endpoint records its
// timings in one small locked record, and responses are cached as fully
// rendered bytes — a hit is one Write and a handful of allocations. The
// X-Cache response header reports hit, miss or collapsed.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/portfolio"
	"pipesched/internal/service/cache"
	"pipesched/internal/workload"
)

// Options configure a Server. The zero value is fully usable.
type Options struct {
	// CacheEntries bounds the result cache; 0 selects the default (1024)
	// and negative values disable storage while keeping singleflight
	// deduplication.
	CacheEntries int
	// Workers caps the batch engine's worker pool when a request does not
	// set its own; 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// RequestTimeout bounds every request without an explicit timeout_ms;
	// 0 means no server-side deadline.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown wait for in-flight
	// requests; 0 selects the default (15s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies; 0 selects the default (8 MiB).
	MaxBodyBytes int64
	// Logger receives start/stop and per-request error lines; nil
	// discards them.
	Logger *log.Logger
	// Cluster enables peer-aware serving: consistent-hash ownership of
	// the canonical key space across a fleet, with replica forwarding,
	// anti-entropy sync and local-solve degradation. nil (the default)
	// serves single-node with zero overhead on the hot path.
	Cluster *ClusterConfig
}

const (
	defaultCacheEntries = 1024
	defaultDrainTimeout = 15 * time.Second
	defaultMaxBody      = 8 << 20
	defaultSweepPoints  = 15
	// maxSweepPoints caps the sweep grid: points scales both memory and
	// solver work linearly, so an uncapped value in one small request
	// would be a denial-of-service lever.
	maxSweepPoints = 512
)

func (o Options) cacheEntries() int {
	switch {
	case o.CacheEntries == 0:
		return defaultCacheEntries
	case o.CacheEntries < 0:
		return 0
	default:
		return o.CacheEntries
	}
}

func (o Options) drain() time.Duration {
	if o.DrainTimeout <= 0 {
		return defaultDrainTimeout
	}
	return o.DrainTimeout
}

func (o Options) maxBody() int64 {
	if o.MaxBodyBytes <= 0 {
		return defaultMaxBody
	}
	return o.MaxBodyBytes
}

// Server is the HTTP solver service. It implements http.Handler; run it
// under any http.Server, or use Serve for listener-to-shutdown lifecycle.
type Server struct {
	opts    Options
	cache   *cache.Sharded[[]byte]
	intern  *evalIntern
	metrics *metricsRegistry
	mux     *http.ServeMux
	logger  *log.Logger
	// peers is the cluster router; nil in single-node mode, in which
	// case every peer hook in the handlers is one nil check.
	peers *peerRouter

	// solveHook, when non-nil, runs inside the singleflight leader just
	// before the underlying solve. Tests use it to hold requests in
	// flight deterministically.
	solveHook func()
}

// New builds a Server from opts.
func New(opts Options) *Server {
	s := &Server{
		opts:    opts,
		cache:   cache.NewSharded[[]byte](opts.cacheEntries(), 0),
		intern:  newEvalIntern(),
		metrics: newMetricsRegistry(),
		logger:  opts.Logger,
	}
	if s.logger == nil {
		s.logger = log.New(io.Discard, "", 0)
	}
	s.peers = newPeerRouter(opts.Cluster)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.instrument("solve", (*Server).handleSolve))
	mux.HandleFunc("POST /v1/batch", s.instrument("batch", (*Server).handleBatch))
	mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", (*Server).handleSweep))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.peers != nil {
		mux.HandleFunc("GET "+cluster.MembersPath, s.handleMembers)
		mux.HandleFunc("POST "+cluster.JoinPath, s.handleJoin)
		mux.HandleFunc("GET "+cluster.DigestPath, s.handleDigest)
		mux.HandleFunc("POST "+cluster.FetchPath, s.handleFetch)
	}
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// CacheStats returns a snapshot of the aggregated result-cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// Metrics returns the snapshot served by GET /metrics.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.metrics.snapshot(s.cache.Stats(), s.cache.Shards())
	snap.Solver.DP = exact.ReadStats()
	snap.Solver.InternHits, snap.Solver.InternMisses = s.intern.stats()
	snap.Cluster = s.peers.snapshot()
	return snap
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get up
// to Options.DrainTimeout to finish, and Serve returns nil on a clean
// drain (or the drain deadline's error). The listener is always closed on
// return.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.logger.Printf("pipeschedd: serving on %s", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logger.Printf("pipeschedd: shutdown requested, draining for up to %s", s.opts.drain())
	sctx, cancel := context.WithTimeout(context.Background(), s.opts.drain())
	defer cancel()
	err := hs.Shutdown(sctx)
	<-errc // hs.Serve has returned http.ErrServerClosed
	if err != nil {
		return fmt.Errorf("service: drain incomplete: %w", err)
	}
	s.logger.Printf("pipeschedd: drained cleanly")
	return nil
}

// ---------------------------------------------------------- wire types --

// IntervalJSON is the wire form of one mapping interval.
type IntervalJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Proc  int `json:"proc"`
}

func intervalsJSON(m *mapping.Mapping) []IntervalJSON {
	if m == nil {
		return nil
	}
	ivs := m.Intervals()
	out := make([]IntervalJSON, len(ivs))
	for i, iv := range ivs {
		out[i] = IntervalJSON{Start: iv.Start, End: iv.End, Proc: iv.Proc}
	}
	return out
}

// SolveRequest is the body of POST /v1/solve. (The serving path decodes
// through pooled wire scratch; this struct documents the schema and
// serves programmatic clients.)
type SolveRequest struct {
	Pipeline *pipeline.Pipeline `json:"pipeline"`
	// Platform: "comm-homogeneous" (default kind; speeds + one shared
	// bandwidth) or "fully-heterogeneous" (speeds + symmetric per-link
	// bandwidth matrix). The solver lane is selected by kind.
	Platform *platform.Platform `json:"platform"`
	// Objective: "min-latency" (default; Bound is a period bound, the
	// paper's H1–H4 side, F1 on fully heterogeneous platforms) or
	// "min-period" (Bound is a latency bound, H5–H6 or F5–F6).
	Objective string  `json:"objective,omitempty"`
	Bound     float64 `json:"bound"`
	// Mode: "portfolio" (default; the platform's heuristic lane + exact
	// DP raced), "best" (heuristics only), "exact" (DP only; requires a
	// comm-homogeneous exact.Eligible platform — compressed speed-class
	// state space within budget), or one heuristic identifier
	// "H1".."H6" (comm-homogeneous) / "F1", "F5", "F6" (fully
	// heterogeneous).
	Mode      string `json:"mode,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	Objective string         `json:"objective"`
	Mode      string         `json:"mode"`
	Bound     float64        `json:"bound"`
	Solver    string         `json:"solver"`
	Period    float64        `json:"period"`
	Latency   float64        `json:"latency"`
	Intervals []IntervalJSON `json:"intervals"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Instances []workload.Instance `json:"instances"`
	Objective string              `json:"objective,omitempty"`
	Bound     float64             `json:"bound"`
	// RelativeBound rescales Bound per instance, as in
	// portfolio.BatchOptions.
	RelativeBound bool `json:"relative_bound,omitempty"`
	// Exact additionally races the exact DP where the platform fits.
	Exact     bool `json:"exact,omitempty"`
	Workers   int  `json:"workers,omitempty"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
}

// BatchResult is one instance's outcome in a BatchResponse.
type BatchResult struct {
	Index     int            `json:"index"`
	Bound     float64        `json:"bound"`
	Solver    string         `json:"solver,omitempty"`
	Period    float64        `json:"period,omitempty"`
	Latency   float64        `json:"latency,omitempty"`
	Intervals []IntervalJSON `json:"intervals,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// BatchFrontPoint is one entry of the batch-level non-dominated frontier.
type BatchFrontPoint struct {
	Instance int     `json:"instance"`
	Period   float64 `json:"period"`
	Latency  float64 `json:"latency"`
}

// BatchResponse is the body of a successful POST /v1/batch.
type BatchResponse struct {
	Solved  int               `json:"solved"`
	Failed  int               `json:"failed"`
	Results []BatchResult     `json:"results"`
	Front   []BatchFrontPoint `json:"front"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Pipeline *pipeline.Pipeline `json:"pipeline"`
	Platform *platform.Platform `json:"platform"`
	// Points is the period-bound grid size (default 15, minimum 2).
	Points    int `json:"points,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SweepPoint is one frontier point of a SweepResponse.
type SweepPoint struct {
	Period    float64        `json:"period"`
	Latency   float64        `json:"latency"`
	Intervals []IntervalJSON `json:"intervals"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Points []SweepPoint `json:"points"`
}

// ------------------------------------------------------------ plumbing --

// statusError is an error that knows its HTTP status.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func badRequest(format string, a ...any) error {
	return &statusError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, a...)}
}

func infeasible(format string, a ...any) error {
	return &statusError{code: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, a...)}
}

// statusRecorder captures the response status for metrics. It lives in
// the pooled scratch and is re-armed per request.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) reset(inner http.ResponseWriter) {
	w.ResponseWriter = inner
	w.status = http.StatusOK
}

// instrument wraps a handler with the in-flight gauge, the pooled
// per-request scratch and the per-endpoint latency recorder. The
// endpoint's metrics slot is resolved once here, at mux-registration
// time, so the per-request path records straight into it.
func (s *Server) instrument(name string, h func(*Server, *scratch, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	em := s.metrics.slot(name)
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		sc := scratchPool.Get().(*scratch)
		sc.rec.reset(w)
		start := time.Now()
		h(s, sc, &sc.rec, r)
		failed := sc.rec.status >= 400
		sc.rec.ResponseWriter = nil // no stale writer retained in the pool
		scratchPool.Put(sc)
		em.observe(time.Since(start), failed)
	}
}

// decodeJSON reads the request body once and decodes it into v with
// the single-scan reader of decode.go: an unknown key at any depth, a
// value of the wrong type and trailing data are 400s, exactly as with
// the strict json.Decoder it replaced. It returns the body as raw, which
// a peer-mode non-owner proxies verbatim to the key's owner.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v wireObject) ([]byte, error) {
	raw, err := s.readBody(w, r)
	if err == nil {
		err = decodeWire(raw, v)
	}
	if err != nil {
		return nil, badRequest("invalid request body: %v", err)
	}
	return raw, nil
}

// maxBodyPrealloc caps the buffer Content-Length sizes up front, so a
// false header cannot make the daemon allocate the whole body limit
// before a byte arrives; a longer body grows the buffer as it reads.
const maxBodyPrealloc = 1 << 20

// readBody reads the whole body into a fresh buffer through
// http.MaxBytesReader: a body over the limit is an error in every mode,
// and a Content-Length over it is one before any read. Buffers are not
// pooled, so the largest bodies seen do not stay resident between
// requests.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	limit := s.opts.maxBody()
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	size := int64(512) // io.ReadAll's start when the length is unknown
	if r.ContentLength > 0 {
		// One spare byte reads EOF without growing the buffer.
		size = min(r.ContentLength, maxBodyPrealloc) + 1
	}
	body := make([]byte, 0, size)
	rd := http.MaxBytesReader(w, r.Body, limit)
	for {
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, err
		}
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
	}
}

// writeJSON renders a 200 with v as JSON (non-hot paths: health, metrics).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeError maps err onto an HTTP status and renders the error body
// through the pooled encoder.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusInternalServerError
	var se *statusError
	switch {
	case errors.As(err, &se):
		code = se.code
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log's benefit.
		code = http.StatusServiceUnavailable
	}
	if code >= 500 {
		s.logger.Printf("pipeschedd: %s %s: %v", r.Method, r.URL.Path, err)
	}
	writeErrorBody(w, code, err.Error())
}

// requestContext derives the per-request deadline: an explicit timeout_ms
// wins, then Options.RequestTimeout, then no deadline.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.opts.RequestTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// ----------------------------------------------------------- endpoints --

// parseObjective maps the wire objective onto the batch engine's enum.
func parseObjective(objective string) (portfolio.Objective, error) {
	switch strings.ToLower(objective) {
	case "", "min-latency":
		return portfolio.MinimizeLatency, nil
	case "min-period":
		return portfolio.MinimizePeriod, nil
	default:
		return 0, badRequest("unknown objective %q (want \"min-latency\" or \"min-period\")", objective)
	}
}

func validBound(bound float64) error {
	if bound <= 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
		return badRequest("bound %v is invalid (must be finite and > 0)", bound)
	}
	return nil
}

// servableKind is the serving layer's single capability gate: a request
// may name any platform kind some solver lane supports — comm-homogeneous
// (the paper's H1–H6 plus the exact DP) or fully heterogeneous (the
// free-processor-choice F1/F5/F6 lane). An empty tag defaults to
// comm-homogeneous, as in platform.UnmarshalJSON. Solve, sweep and every
// batch instance check their wire kind tag here, before any platform
// object exists.
func servableKind(kind string) error {
	switch kind {
	case "", platform.CommHomogeneous.String(), platform.FullyHeterogeneous.String():
		return nil
	}
	return badRequest("unknown platform kind %q (want %q or %q)", kind, platform.CommHomogeneous, platform.FullyHeterogeneous)
}

// wireFullHet reports whether a (validated) wire kind tag names a fully
// heterogeneous platform.
func wireFullHet(kind string) bool {
	return kind == platform.FullyHeterogeneous.String()
}

// periodRegistry and latencyRegistry select the heuristic lane by
// platform capability, mirroring the portfolio's dispatch: the paper's
// H1–H4/H5–H6 on comm-homogeneous platforms, F1/F5–F6 on fully
// heterogeneous ones.
func periodRegistry(fullhet bool) []heuristics.PeriodConstrained {
	if fullhet {
		return heuristics.FullHetPeriodHeuristics()
	}
	return heuristics.PeriodHeuristics()
}

func latencyRegistry(fullhet bool) []heuristics.LatencyConstrained {
	if fullhet {
		return heuristics.FullHetLatencyHeuristics()
	}
	return heuristics.LatencyHeuristics()
}

// normalizeMode canonicalises and checks the solve mode against the
// objective and platform capability: H1–H4 exist only on the
// period-constrained side and H5–H6 only on the latency-constrained one,
// while fully heterogeneous platforms take the F lane (F1 period-side,
// F5/F6 latency-side) and cannot ask for the exact DP — its speed-class
// compression does not extend to per-link bandwidths.
func normalizeMode(mode string, objective portfolio.Objective, fullhet bool) (string, error) {
	m := strings.ToLower(mode)
	switch m {
	case "":
		return "portfolio", nil
	case "portfolio", "best":
		return m, nil
	case "exact":
		if fullhet {
			return "", badRequest("mode \"exact\" requires a comm-homogeneous platform (the DP's speed-class compression does not cover per-link bandwidths; use portfolio, best, or an F heuristic)")
		}
		return m, nil
	}
	id := strings.ToUpper(mode)
	if objective == portfolio.MinimizeLatency {
		for _, h := range periodRegistry(fullhet) {
			if h.ID() == id {
				return id, nil
			}
		}
		if fullhet {
			return "", badRequest("unknown mode %q for objective min-latency on a fully heterogeneous platform (want portfolio, best or F1)", mode)
		}
		return "", badRequest("unknown mode %q for objective min-latency (want portfolio, best, exact or H1..H4)", mode)
	}
	for _, h := range latencyRegistry(fullhet) {
		if h.ID() == id {
			return id, nil
		}
	}
	if fullhet {
		return "", badRequest("unknown mode %q for objective min-period on a fully heterogeneous platform (want portfolio, best, F5 or F6)", mode)
	}
	return "", badRequest("unknown mode %q for objective min-period (want portfolio, best, exact, H5 or H6)", mode)
}

// buildPlatform constructs the platform named by a (validated) wire
// description, dispatching on the kind tag.
func buildPlatform(pw *platformWire) (*platform.Platform, error) {
	if wireFullHet(pw.Kind) {
		return platform.NewFullyHeterogeneous(pw.Speeds, pw.Links)
	}
	return platform.New(pw.Speeds, pw.Bandwidth)
}

// buildBatchInstances constructs a batch's domain objects from the wire
// form, validating each element and deduplicating platforms by content
// by the batch key's rule: an instance whose platform has the same
// canonical content as the previous instance's gets the same constructed
// object, so the grouped batch lane builds its shared evaluator tables
// once per run of equal platforms rather than once per instance.
func buildBatchInstances(wires []instanceWire) ([]workload.Instance, error) {
	instances := make([]workload.Instance, len(wires))
	for i := range wires {
		in := &wires[i]
		app, err := pipeline.New(in.Pipeline.Works, in.Pipeline.Deltas)
		if err != nil {
			return nil, badRequest("instance %d: invalid request body: %v", i, err)
		}
		var plat *platform.Platform
		if i > 0 && sameWirePlatform(&in.Platform, &wires[i-1].Platform) {
			plat = instances[i-1].Plat
		} else if plat, err = buildPlatform(&in.Platform); err != nil {
			return nil, badRequest("instance %d: invalid request body: %v", i, err)
		}
		instances[i] = workload.Instance{App: app, Plat: plat}
	}
	return instances, nil
}

// solver runs one request's solve and renders its body. It reads only
// what its prepare step copied out of the pooled scratch, so it may run
// on after the handler has returned the scratch to its pool.
type solver func(ctx context.Context) ([]byte, error)

// serveKeyed is the path every solver endpoint takes once it has decoded,
// validated and keyed its request: cache hit, peer route, prepare,
// request context, one detached solve under cache.Do, one write.
//
// forwardPath is the endpoint a peer-owned key is proxied to; empty keeps
// the request node-local. prepare runs on a local miss only: it builds
// the solve's inputs (the evaluator lease, a batch's domain objects) and
// returns the solver, and its errors are the request's errors.
func (s *Server) serveKeyed(w http.ResponseWriter, r *http.Request, key cache.Key, forwardPath string, raw []byte, timeoutMS int, prepare func() (solver, error)) {
	// Hot path: a stored entry is served without building domain objects
	// or a request context — one lookup, one Write.
	if body, ok := s.cache.Get(key); ok {
		writeCached(w, body, tierHit)
		return
	}
	// Peer tier: a local miss on a key owned elsewhere proxies the raw
	// body to the owner and installs the answer locally; a failed forward
	// degrades to the local solve below.
	fellBack := false
	if s.peers != nil && forwardPath != "" {
		body, tier, served, fb := s.peers.route(w, r, key, forwardPath, raw)
		if served {
			s.cache.Put(key, body)
			writeCached(w, body, tier)
			return
		}
		fellBack = fb
	}
	solve, err := prepare()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()
	// The solve itself runs detached from this request's lifetime: ctx
	// bounds only the wait below, so one impatient or disconnecting
	// client can never poison collapsed waiters, and the finished result
	// still lands in the cache. Since solveCtx is never cancelled, a
	// sweep's frontier or a batch's report is never truncated.
	solveCtx := context.WithoutCancel(ctx)
	body, src, err := s.cache.Do(ctx, key, func() ([]byte, error) {
		if s.solveHook != nil {
			s.solveHook()
		}
		return solve(solveCtx)
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	tier := int(src) // cache.Source values coincide with the first three tiers
	if fellBack {
		tier = tierFallback
	}
	writeCached(w, body, tier)
}

func (s *Server) handleSolve(sc *scratch, w http.ResponseWriter, r *http.Request) {
	req := &sc.solve
	req.reset()
	raw, err := s.decodeJSON(w, r, req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if req.Pipeline.missing() || req.Platform.missing() {
		s.writeError(w, r, badRequest("both \"pipeline\" and \"platform\" are required"))
		return
	}
	if err := servableKind(req.Platform.Kind); err != nil {
		s.writeError(w, r, err)
		return
	}
	objective, err := parseObjective(req.Objective)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := validBound(req.Bound); err != nil {
		s.writeError(w, r, err)
		return
	}
	mode, err := normalizeMode(req.Mode, objective, wireFullHet(req.Platform.Kind))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	key := solveKeyWire(objective, mode, req.Bound, req.Pipeline.Works, req.Pipeline.Deltas, &req.Platform)
	s.serveKeyed(w, r, key, "/v1/solve", raw, req.TimeoutMS, func() (solver, error) {
		// Lease the instance's shared evaluator (validating and
		// constructing it on first sight). The intern table copies
		// nothing from the scratch — the constructors copy the wire
		// slices — so the solver owns its inputs.
		ev, err := s.intern.lease(req.Pipeline.Works, req.Pipeline.Deltas, &req.Platform)
		if err != nil {
			return nil, err
		}
		bound := req.Bound
		return func(ctx context.Context) ([]byte, error) {
			resp, err := s.solveOne(ctx, objective, mode, ev, bound)
			if err != nil {
				return nil, err
			}
			return renderJSON(resp)
		}, nil
	})
}

// solveOne runs one instance through the selected mode. ev is the
// interned evaluator, so repeated instances hit warm tables downstream.
func (s *Server) solveOne(ctx context.Context, objective portfolio.Objective, mode string, ev *mapping.Evaluator, bound float64) (SolveResponse, error) {
	resp := SolveResponse{Objective: objective.String(), Mode: mode, Bound: bound}
	var res heuristics.Result
	switch mode {
	case "portfolio", "best":
		sopts := portfolio.SolveOptions{Exact: mode == "portfolio"}
		var (
			out     portfolio.Outcome
			found   bool
			closest error
		)
		if objective == portfolio.MinimizePeriod {
			out, found, closest = portfolio.UnderLatency(ctx, ev, bound, sopts)
		} else {
			out, found, closest = portfolio.UnderPeriod(ctx, ev, bound, sopts)
		}
		if !found {
			if err := ctx.Err(); err != nil {
				return resp, err
			}
			return resp, infeasible("no solver satisfied %s bound %g: %v", objective, bound, closest)
		}
		res, resp.Solver = out.Result, out.Solver
	case "exact":
		if plat := ev.Platform(); !exact.Eligible(plat) {
			// Out of the DP's reach is a property of the request, not an
			// infeasible bound (normalizeMode already turned fully
			// heterogeneous platforms away).
			return resp, badRequest("mode \"exact\" needs a compressed DP state space of at most %d; this platform's is %d (%d processors in %d speed classes): use portfolio or best",
				exact.MaxStates, plat.ClassStateSpace(), plat.Processors(), plat.SpeedClasses())
		}
		var (
			xr  exact.Result
			err error
		)
		if objective == portfolio.MinimizePeriod {
			xr, err = exact.MinPeriodUnderLatency(ev, bound)
		} else {
			xr, err = exact.MinLatencyUnderPeriod(ev, bound)
		}
		if err != nil {
			return resp, infeasible("exact solve failed: %v", err)
		}
		res, resp.Solver = heuristics.Result{Mapping: xr.Mapping, Metrics: xr.Metrics}, portfolio.ExactID
	default: // a single heuristic identifier, already validated
		var err error
		fullhet := ev.Platform().Kind() == platform.FullyHeterogeneous
		if objective == portfolio.MinimizePeriod {
			for _, h := range latencyRegistry(fullhet) {
				if h.ID() == mode {
					res, err = h.MinimizePeriod(ev, bound)
				}
			}
		} else {
			for _, h := range periodRegistry(fullhet) {
				if h.ID() == mode {
					res, err = h.MinimizeLatency(ev, bound)
				}
			}
		}
		if err != nil {
			return resp, infeasible("%s failed: %v", mode, err)
		}
		resp.Solver = mode
	}
	resp.Period = res.Metrics.Period
	resp.Latency = res.Metrics.Latency
	resp.Intervals = intervalsJSON(res.Mapping)
	return resp, nil
}

func (s *Server) handleBatch(sc *scratch, w http.ResponseWriter, r *http.Request) {
	// Batch bodies decode into pooled wire scratch like solve bodies: the
	// primed hot path goes body → canonical key → cached bytes without
	// constructing a single pipeline or platform. Domain objects are
	// built on the miss only, and own their data, so the detached batch
	// run never touches the scratch after the handler returns.
	// Batch requests stay node-local in peer mode: the canonical key of a
	// whole instance list is effectively unique per client, so forwarding
	// would add a hop for no expected hit, and the batch engine already
	// spreads the work across this node's cores.
	req := &sc.batch
	req.reset()
	if _, err := s.decodeJSON(w, r, req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if len(req.Instances) == 0 {
		s.writeError(w, r, badRequest("\"instances\" must hold at least one instance"))
		return
	}
	for i := range req.Instances {
		in := &req.Instances[i]
		if in.Pipeline.missing() || in.Platform.missing() {
			s.writeError(w, r, badRequest("instance %d: both \"pipeline\" and \"platform\" are required", i))
			return
		}
		if err := servableKind(in.Platform.Kind); err != nil {
			s.writeError(w, r, badRequest("instance %d: %v", i, err))
			return
		}
	}
	objective, err := parseObjective(req.Objective)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := validBound(req.Bound); err != nil {
		s.writeError(w, r, err)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	opts := portfolio.BatchOptions{
		Objective:     objective,
		Bound:         req.Bound,
		RelativeBound: req.RelativeBound,
		Exact:         req.Exact,
		Workers:       workers,
	}
	key := batchKeyWire(opts, req.Instances)
	s.serveKeyed(w, r, key, "", nil, req.TimeoutMS, func() (solver, error) {
		// Construct the domain objects, deduplicating platforms by
		// content so instances naming the same platform share one object
		// — the pointer identity SolveBatch groups its evaluator-table
		// construction by.
		instances, err := buildBatchInstances(req.Instances)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) ([]byte, error) {
			report, err := portfolio.SolveBatch(ctx, instances, opts)
			if err != nil {
				// Cancelled mid-batch: the report is partial, never cache it.
				return nil, err
			}
			resp := BatchResponse{Solved: report.Solved, Failed: report.Failed}
			resp.Results = make([]BatchResult, len(report.Results))
			for i, res := range report.Results {
				br := BatchResult{Index: res.Index, Bound: res.Bound}
				if res.Err != nil {
					br.Error = res.Err.Error()
				} else {
					br.Solver = res.Outcome.Solver
					br.Period = res.Outcome.Result.Metrics.Period
					br.Latency = res.Outcome.Result.Metrics.Latency
					br.Intervals = intervalsJSON(res.Outcome.Result.Mapping)
				}
				resp.Results[i] = br
			}
			for _, pt := range report.Front {
				resp.Front = append(resp.Front, BatchFrontPoint{
					Instance: pt.Instance,
					Period:   pt.Metrics.Period,
					Latency:  pt.Metrics.Latency,
				})
			}
			return renderJSON(resp)
		}, nil
	})
}

func (s *Server) handleSweep(sc *scratch, w http.ResponseWriter, r *http.Request) {
	req := &sc.sweep
	req.reset()
	raw, err := s.decodeJSON(w, r, req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if req.Pipeline.missing() || req.Platform.missing() {
		s.writeError(w, r, badRequest("both \"pipeline\" and \"platform\" are required"))
		return
	}
	if err := servableKind(req.Platform.Kind); err != nil {
		s.writeError(w, r, err)
		return
	}
	if req.Points < 0 || req.Points > maxSweepPoints {
		s.writeError(w, r, badRequest("points %d is invalid (must be in [0..%d]; 0 selects the default %d)", req.Points, maxSweepPoints, defaultSweepPoints))
		return
	}
	points := req.Points
	if points == 0 {
		points = defaultSweepPoints
	}
	key := sweepKeyWire(points, req.Pipeline.Works, req.Pipeline.Deltas, &req.Platform)
	s.serveKeyed(w, r, key, "/v1/sweep", raw, req.TimeoutMS, func() (solver, error) {
		ev, err := s.intern.lease(req.Pipeline.Works, req.Pipeline.Deltas, &req.Platform)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) ([]byte, error) {
			front := portfolio.ParetoSweep(ctx, ev, points, 0)
			resp := SweepResponse{Points: make([]SweepPoint, len(front))}
			for i, pt := range front {
				resp.Points[i] = SweepPoint{
					Period:    pt.Metrics.Period,
					Latency:   pt.Metrics.Latency,
					Intervals: intervalsJSON(pt.Mapping),
				}
			}
			return renderJSON(resp)
		}, nil
	})
}

// writeCached renders a cached (or just-rendered) response body with its
// X-Cache tier: three header slots and exactly one Write. Bodies are
// rendered with their trailing newline (renderJSON), so no second write
// is ever needed.
func writeCached(w http.ResponseWriter, body []byte, tier int) {
	h := w.Header()
	h["Content-Type"] = hdrJSON
	h["X-Cache"] = hdrXCacheVal[tier]
	setContentLength(h, len(body))
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Metrics())
}
