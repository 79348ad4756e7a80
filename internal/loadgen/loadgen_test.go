package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// countingStub records every body it receives, a deterministic sink for
// the generator.
type countingStub struct {
	mu     sync.Mutex
	bodies []string
}

func (c *countingStub) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf, _ := io.ReadAll(r.Body)
		c.mu.Lock()
		c.bodies = append(c.bodies, string(buf))
		c.mu.Unlock()
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte(`{"ok":true}`))
	})
}

func (c *countingStub) sorted() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.bodies...)
	sort.Strings(out)
	return out
}

func TestRunDeterministicKeyMultiset(t *testing.T) {
	run := func() []string {
		stub := &countingStub{}
		ts := httptest.NewServer(stub.handler())
		defer ts.Close()
		rep, err := Run(context.Background(), Config{
			Targets:  []string{ts.URL},
			Workers:  4,
			Requests: 120,
			Keys:     16,
			Seed:     42,
			Stages:   4, Processors: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sent != 120 || rep.Errors != 0 {
			t.Fatalf("report: %+v", rep)
		}
		if rep.Tiers["hit"] != 120 {
			t.Fatalf("tiers = %v, want 120 hits", rep.Tiers)
		}
		return stub.sorted()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs sent %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request multiset diverged at %d — the stream is not reproducible", i)
		}
	}
	// The Zipf draw over 16 keys must repeat keys (skew means a hot
	// head), so distinct bodies < requests.
	distinct := map[string]bool{}
	for _, s := range a {
		distinct[s] = true
	}
	if len(distinct) >= len(a) {
		t.Fatal("no key repeated — Zipf skew is not being applied")
	}
	if len(distinct) < 2 {
		t.Fatal("only one distinct key — universe generation is broken")
	}
}

func TestRunCountsErrors(t *testing.T) {
	var n int64
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		fail := n%2 == 0
		mu.Unlock()
		if fail {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		Workers:  2,
		Requests: 50,
		Keys:     4,
		Stages:   4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 25 {
		t.Fatalf("errors = %d, want 25 (every second request 500s)", rep.Errors)
	}
	if rep.Statuses["500"] != 25 || rep.Statuses["200"] != 25 {
		t.Fatalf("statuses = %v", rep.Statuses)
	}
}

func TestRunDetectsVerifyMismatch(t *testing.T) {
	serve := func(body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(body))
		}))
	}
	target := serve("one answer")
	defer target.Close()
	ref := serve("a different answer")
	defer ref.Close()

	rep, err := Run(context.Background(), Config{
		Targets:      []string{target.URL},
		VerifyTarget: ref.URL,
		Workers:      2,
		Requests:     10,
		Keys:         4,
		Stages:       4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 10 {
		t.Fatalf("mismatches = %d, want 10", rep.Mismatches)
	}

	// And agreeing targets report zero.
	rep, err = Run(context.Background(), Config{
		Targets:      []string{target.URL},
		VerifyTarget: target.URL,
		Workers:      2,
		Requests:     10,
		Keys:         4,
		Stages:       4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("self-verify mismatches = %d, want 0", rep.Mismatches)
	}
}

func TestRunConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no-targets":   {},
		"bad-zipf":     {Targets: []string{"http://x"}, ZipfS: 0.5},
		"negative-req": {Targets: []string{"http://x"}, Requests: -1},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted %+v", name, cfg)
		}
	}
}

func TestSummarizeQuantiles(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms
	}
	s := summarize(lat)
	if s.P50MS != 50 || s.P90MS != 90 || s.P99MS != 99 || s.MaxMS != 100 {
		t.Fatalf("quantiles = %+v", s)
	}
	if s.MeanMS < 50.4 || s.MeanMS > 50.6 {
		t.Fatalf("mean = %g, want 50.5", s.MeanMS)
	}
	if z := summarize(nil); z != (LatencySummary{}) {
		t.Fatalf("empty summary = %+v", z)
	}
}
