package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/portfolio"
	"pipesched/internal/service"
	"pipesched/internal/service/cache"
	"pipesched/internal/workload"
)

// Span names: each is the public function the span times.
const (
	spServe      = "service.Server.ServeHTTP"
	spEvaluator  = "mapping.NewEvaluator"
	spUnderP     = "portfolio.UnderPeriod"
	spUnderL     = "portfolio.UnderLatency"
	spSweep      = "portfolio.ParetoSweep"
	spBatch      = "portfolio.SolveBatchGrouped"
	spExactUnder = "exact.MinLatencyUnderPeriod"
	spExactLat   = "exact.MinPeriodUnderLatency"
	spCacheGet   = "cache.Sharded.Get"
	spOwners     = "cluster.Topology.Owners"
	spForward    = "cluster.Client.Forward"
	spRequest    = "client.request"
	heurPrefix   = "heuristics."
)

// span is one timed call, recorded by the benchmark around a call into
// a layer's public function. Children of a ServeHTTP or race span are
// the calls that function makes internally, replayed on the same
// request right after it, so a span's self time is its duration minus
// its children's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // >1 for a span timing a loop of calls
	Failed bool   `json:"failed,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as a span and returns its id; fn reports failure.
func (t *tracer) do(name, tag string, req, parent int, fn func() bool) int {
	start := time.Since(t.t0)
	failed := fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Tag: tag,
		Start: int64(start), End: int64(end), Calls: 1, Failed: failed,
	})
	return len(t.spans)
}

// add records an already-timed span.
func (t *tracer) add(s span) {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].dur()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			self[p-1] -= t.spans[i].dur()
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// layerKey groups spans for the summary: ServeHTTP splits by hit/miss.
func (s *span) layerKey() string {
	if s.Tag != "" {
		return s.Name + "/" + s.Tag
	}
	return s.Name
}

// summary prints, per layer: span count, calls, busy time and self-time
// p50/p99.
func (t *tracer) summary(w io.Writer) {
	self := t.selfTimes()
	type agg struct {
		spans, calls int
		busy         time.Duration
		self         []float64
	}
	by := map[string]*agg{}
	for i := range t.spans {
		s := &t.spans[i]
		a := by[s.layerKey()]
		if a == nil {
			a = &agg{}
			by[s.layerKey()] = a
		}
		a.spans++
		a.calls += s.Calls
		a.busy += s.dur()
		a.self = append(a.self, float64(self[i])/float64(s.Calls))
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "loopbench: %-40s %7s %9s %12s %14s %14s\n", "layer span", "spans", "calls", "busy", "self p50/call", "self p99/call")
	for _, n := range names {
		a := by[n]
		sort.Float64s(a.self)
		fmt.Fprintf(w, "loopbench: %-40s %7d %9d %12s %14s %14s\n", n, a.spans, a.calls,
			a.busy.Round(time.Microsecond), time.Duration(quantile(a.self, 0.5)), time.Duration(quantile(a.self, 0.99)))
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations (per call) of spans matching name and
// tag, in microseconds.
func (t *tracer) durations(name, tag string) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && s.Tag == tag {
			out = append(out, float64(s.dur())/float64(s.Calls)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// selfOf returns the self times, in microseconds, of spans matching
// name and tag.
func (t *tracer) selfOf(name, tag string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Tag == tag {
			out = append(out, float64(self[i])/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// traceBudget bounds the in-process replay of one traced run.
const traceBudget = 6 * time.Second

// traceLayers replays sample, a few of the measured phase's requests,
// through an in-process service.Server and then through each layer's
// public functions, one call at a time. served maps a request id to the
// daemon's answer, which the in-process answer must equal byte for
// byte; mismatches are returned as failures.
func (t *tracer) traceLayers(sample []*request, served map[int]*answer) (failures []error) {
	srv := service.New(service.Options{})
	deadline := time.Now().Add(traceBudget)
	for _, r := range sample {
		if time.Now().After(deadline) {
			break
		}
		var body []byte
		root := t.do(spServe, "miss", r.id, 0, func() bool {
			code, b := serveInProcess(srv, r)
			body = b
			return code >= 500
		})
		if a := served[r.id]; a != nil && a.err == nil && a.status == http.StatusOK && !bytes.Equal(a.body, body) {
			failures = append(failures, fmt.Errorf("request %d: in-process answer differs from the daemon's", r.id))
		}
		switch r.path {
		case pathSolve:
			t.traceSolve(r, r.insts[0], r.obj, r.bound, true, root)
		case pathSweep:
			var ev *mapping.Evaluator
			x := r.insts[0]
			t.do(spEvaluator, "", r.id, root, func() bool { ev = mapping.NewEvaluator(x.in.App, x.in.Plat); return false })
			t.do(spSweep, "", r.id, root, func() bool { return len(portfolio.ParetoSweep(context.Background(), ev, sweepPoints, 0)) == 0 })
		case pathBatch:
			ins := make([]workload.Instance, len(r.insts))
			for i, x := range r.insts {
				ins[i] = x.in
			}
			opts := portfolio.BatchOptions{Objective: r.obj, Bound: r.bound, RelativeBound: true}
			batch := t.do(spBatch, "", r.id, root, func() bool {
				rep, err := portfolio.SolveBatchGrouped(context.Background(), ins, opts)
				return err != nil || rep.Failed > 0
			})
			for _, x := range r.insts {
				t.traceSolve(r, x, r.obj, r.elementBound(x), false, batch)
			}
		}
		t.do(spServe, "hit", r.id, 0, func() bool {
			code, _ := serveInProcess(srv, r)
			return code >= 500
		})
	}
	return failures
}

// traceSolve times one evaluator construction and one portfolio race
// under parent, then each race member alone under the race span. The
// exact DP joins the race as it does in the daemon: for solve requests,
// not for batch elements.
func (t *tracer) traceSolve(r *request, x *instance, obj portfolio.Objective, bound float64, withExact bool, parent int) {
	var ev *mapping.Evaluator
	t.do(spEvaluator, "", r.id, parent, func() bool { ev = mapping.NewEvaluator(x.in.App, x.in.Plat); return false })
	withExact = withExact && exact.Eligible(x.in.Plat)
	opts := portfolio.SolveOptions{Exact: withExact}
	if obj == portfolio.MinimizePeriod {
		race := t.do(spUnderL, "", r.id, parent, func() bool {
			_, found, _ := portfolio.UnderLatency(context.Background(), ev, bound, opts)
			return !found
		})
		for _, h := range heuristics.LatencyHeuristics() {
			t.do(heurPrefix+h.ID(), "", r.id, race, func() bool { _, err := h.MinimizePeriod(ev, bound); return err != nil })
		}
		if withExact {
			t.do(spExactLat, "", r.id, race, func() bool { _, err := exact.MinPeriodUnderLatency(ev, bound); return err != nil })
		}
		return
	}
	race := t.do(spUnderP, "", r.id, parent, func() bool {
		_, found, _ := portfolio.UnderPeriod(context.Background(), ev, bound, opts)
		return !found
	})
	for _, h := range heuristics.PeriodHeuristics() {
		t.do(heurPrefix+h.ID(), "", r.id, race, func() bool { _, err := h.MinimizeLatency(ev, bound); return err != nil })
	}
	if withExact {
		t.do(spExactUnder, "", r.id, race, func() bool { _, err := exact.MinLatencyUnderPeriod(ev, bound); return err != nil })
	}
}

func serveInProcess(srv *service.Server, r *request) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// traceKeyStream times cache.Sharded.Get and cluster.Topology.Owners on
// the workload's key stream. The cache is the daemon's default (1024
// entries, one shard per core), first filled by replaying the stream
// with a Put on every miss; the topology is a three-node fleet. Each
// loop is one span whose Calls counts the calls it timed.
func (t *tracer) traceKeyStream(stream []*request, peers []string) {
	if len(stream) == 0 {
		return
	}
	keys := make([]cache.Key, len(stream))
	for i, r := range stream {
		keys[i] = r.cacheKey()
	}
	c := cache.NewSharded[[]byte](1024, 0)
	for i, k := range keys {
		if _, ok := c.Get(k); !ok {
			c.Put(k, stream[i].body)
		}
	}
	reps := max(1, 200_000/len(keys))
	start := time.Since(t.t0)
	for range reps {
		for _, k := range keys {
			c.Get(k)
		}
	}
	t.add(span{Name: spCacheGet, Start: int64(start), End: int64(time.Since(t.t0)), Calls: reps * len(keys), Req: -1})

	topo, err := cluster.NewTopology(peers, peers[0])
	if err != nil {
		return
	}
	var buf [4]int
	start = time.Since(t.t0)
	for range reps {
		for _, k := range keys {
			_ = topo.Owners(cluster.Key(k), service.DefaultReplicas, buf[:0])
		}
	}
	t.add(span{Name: spOwners, Start: int64(start), End: int64(time.Since(t.t0)), Calls: reps * len(keys), Req: -1})
}

// traceForward times cluster.Client.Forward of sample to the live
// daemons (round-robin), after the measured phases. A forwarded request
// is served by the receiving node itself, so its answer must equal the
// one the measured phase got.
func (t *tracer) traceForward(ctx context.Context, urls []string, sample []*request, served map[int]*answer) (failures []error) {
	cl := cluster.NewClient(cluster.ClientConfig{Peers: len(urls)})
	for i, r := range sample {
		node := i % len(urls)
		var res cluster.ForwardResult
		var err error
		t.do(spForward, "", r.id, 0, func() bool {
			res, err = cl.Forward(ctx, node, urls[node], r.path, r.body)
			return err != nil || res.Status >= 500
		})
		if err != nil {
			failures = append(failures, fmt.Errorf("forward of request %d: %w", r.id, err))
			continue
		}
		if a := served[r.id]; a != nil && a.err == nil && (a.status != res.Status || !bytes.Equal(a.body, res.Body)) {
			failures = append(failures, fmt.Errorf("forward of request %d: answer differs from the measured phase's", r.id))
		}
	}
	return failures
}
