package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/workload"
)

// newPeerTestServer builds a peer-aware node whose only peer is peerURL.
// The unstarted-server trick resolves this node's own address before the
// topology is built. Short forward/backoff windows keep failure tests in
// the millisecond range. Replicas is pinned to 1: these tests cover the
// single-owner forward semantics, and in a two-node fleet the default
// R=2 would put self in every key's replica set (no forwards at all).
func newPeerTestServer(t *testing.T, peerURL string, timeout, backoff time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	self := "http://" + ts.Listener.Addr().String()
	topo, err := cluster.NewTopology([]string{self, peerURL}, self)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Cluster: &ClusterConfig{
		Topology:       topo,
		Replicas:       1,
		ForwardTimeout: timeout,
		PeerBackoff:    backoff,
	}})
	ts.Config.Handler = s
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts
}

// deadPeerURL reserves a loopback port and closes it again: a peer
// address that refuses connections immediately.
func deadPeerURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

// peerOwnedBody probes path from seedBase for an instance whose canonical
// key the peer owns, identified behaviourally by wantTier on a cold
// request ("fallback" against a dead peer, "remote-miss" against a live
// stub). Self-owned keys ("miss", or "hit" when a probe re-walks cached
// seeds) are skipped. Returns the body and the response that carried
// wantTier.
func peerOwnedBody(t *testing.T, ts *httptest.Server, path, wantTier string, seedBase int64) ([]byte, []byte) {
	t.Helper()
	for seed := seedBase; seed < seedBase+24; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
		body := keyedBody(t, path, in, nil)
		resp, got := post(t, ts, path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe %s: status %d: %s", path, resp.StatusCode, got)
		}
		switch tier := resp.Header.Get("X-Cache"); tier {
		case wantTier:
			return body, got
		case "miss", "hit":
			continue // self-owned (or already cached); try the next seed
		default:
			t.Fatalf("probe got tier %q, want %q or \"miss\"", tier, wantTier)
		}
	}
	t.Fatal("no peer-owned key in 24 seeds — suspicious ownership skew")
	return nil, nil
}

// TestPeerOwnerDownFallsBack: the owner refuses connections, so a
// peer-owned solve or sweep key degrades to a local solve — HTTP 200,
// tier "fallback", counted in metrics — and the solved bytes are
// installed locally, so the repeat is a plain hit.
func TestPeerOwnerDownFallsBack(t *testing.T) {
	for _, path := range []string{"/v1/solve", "/v1/sweep"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			s, ts := newPeerTestServer(t, deadPeerURL(t), 300*time.Millisecond, 50*time.Millisecond)

			body, first := peerOwnedBody(t, ts, path, "fallback", 500)
			c := s.Metrics().Cluster
			if c == nil || c.Fallbacks == 0 {
				t.Fatalf("fallback not counted: %+v", c)
			}
			if c.Forwarded != 0 {
				t.Fatalf("forward counted against a dead peer: %+v", c)
			}

			resp, second := post(t, ts, path, body)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
				t.Fatalf("repeat after fallback: status %d tier %q, want 200 \"hit\"", resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			if !bytes.Equal(first, second) {
				t.Fatal("fallback solve and cached repeat returned different bytes")
			}
		})
	}
}

// TestPeerBatchStaysLocal: batch requests are never routed, so against a
// dead peer every cold batch is a plain local miss and no forward or
// fallback is counted, whichever node owns its key.
func TestPeerBatchStaysLocal(t *testing.T) {
	s, ts := newPeerTestServer(t, deadPeerURL(t), 300*time.Millisecond, time.Minute)
	for seed := int64(500); seed < 508; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
		resp, got := post(t, ts, "/v1/batch", keyedBody(t, "/v1/batch", in, nil))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("seed %d: status %d tier %q, want 200 \"miss\": %s", seed, resp.StatusCode, resp.Header.Get("X-Cache"), got)
		}
	}
	if c := s.Metrics().Cluster; c.Fallbacks != 0 || c.Forwarded != 0 {
		t.Fatalf("batch traffic reached the peer tier: %+v", c)
	}
}

// TestPeerSlowOwnerHitsForwardTimeout: an owner that hangs past the
// forward timeout costs exactly one timeout, then stays marked down for
// the backoff window — the next peer-owned miss falls back immediately
// instead of waiting out another timeout.
func TestPeerSlowOwnerHitsForwardTimeout(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer func() { close(release); slow.Close() }()

	const timeout = 150 * time.Millisecond
	s, ts := newPeerTestServer(t, slow.URL, timeout, time.Minute)

	start := time.Now()
	_, _ = peerOwnedBody(t, ts, "/v1/solve", "fallback", 600)
	if s.Metrics().Cluster.Fallbacks == 0 {
		t.Fatal("slow owner did not register a fallback")
	}
	firstTook := time.Since(start)
	if firstTook < timeout {
		t.Fatalf("first peer-owned solve returned in %v — the forward timeout (%v) never fired", firstTook, timeout)
	}

	// The peer is now down: a second fresh peer-owned key must fall back
	// without paying the timeout again.
	start = time.Now()
	for seed := int64(900); seed < 924; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
		resp, _ := post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 1e6}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d while peer down", resp.StatusCode)
		}
	}
	if took := time.Since(start); took > 24*timeout/2 {
		t.Fatalf("24 solves against a down peer took %v — forwards are still being attempted", took)
	}
}

// TestPeerForwardRelaysOwnerBytes: a live owner's response body is
// relayed verbatim, its cache disposition mapped to remote-hit /
// remote-miss, and the bytes installed locally as a second-tier hit.
func TestPeerForwardRelaysOwnerBytes(t *testing.T) {
	ownerBody := []byte(`{"relayed":"verbatim"}`)
	var mu sync.Mutex
	ownerTier := "miss"
	sawForwardHeader := false
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		tier := ownerTier
		sawForwardHeader = r.Header.Get(cluster.ForwardHeader) != ""
		mu.Unlock()
		w.Header().Set("X-Cache", tier)
		w.Write(ownerBody)
	}))
	defer owner.Close()

	s, ts := newPeerTestServer(t, owner.URL, time.Second, time.Minute)

	body, got := peerOwnedBody(t, ts, "/v1/solve", "remote-miss", 700)
	if !bytes.Equal(got, ownerBody) {
		t.Fatalf("forwarded body not relayed verbatim: %s", got)
	}
	mu.Lock()
	saw := sawForwardHeader
	mu.Unlock()
	if !saw {
		t.Fatal("forward did not carry the loop-prevention header")
	}
	c := s.Metrics().Cluster
	if c.Forwarded == 0 || c.RemoteMisses == 0 {
		t.Fatalf("forward not counted: %+v", c)
	}

	// Second-tier: the relayed bytes are now a local hit.
	resp, second := post(t, ts, "/v1/solve", body)
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(second, ownerBody) {
		t.Fatalf("relayed bytes not installed locally: tier %q body %s", resp.Header.Get("X-Cache"), second)
	}

	// An owner-side cache hit maps to remote-hit.
	mu.Lock()
	ownerTier = "hit"
	mu.Unlock()
	if _, _ = peerOwnedBody(t, ts, "/v1/solve", "remote-hit", 750); s.Metrics().Cluster.RemoteHits == 0 {
		t.Fatalf("remote hit not counted: %+v", s.Metrics().Cluster)
	}
}

// TestPeerForwardedRequestNeverReforwarded: a request already carrying
// the forward header is served locally even when a peer owns its key and
// that peer is unreachable — no second hop, no fallback accounting, no
// loop.
func TestPeerForwardedRequestNeverReforwarded(t *testing.T) {
	s, ts := newPeerTestServer(t, deadPeerURL(t), 300*time.Millisecond, time.Minute)

	in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: 1})
	body := solveBody(t, in, map[string]any{"bound": 1e6})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d", resp.StatusCode)
	}
	if tier := resp.Header.Get("X-Cache"); tier != "miss" {
		t.Fatalf("forwarded request served tier %q, want a plain local \"miss\"", tier)
	}
	c := s.Metrics().Cluster
	if c.OwnedForwards != 1 {
		t.Fatalf("owned_forwards = %d, want 1", c.OwnedForwards)
	}
	if c.Fallbacks != 0 || c.Forwarded != 0 {
		t.Fatalf("forwarded request triggered peer traffic: %+v", c)
	}
}

// TestPeerDigestThenFetch: the anti-entropy exchange a sync round runs.
// The digest lists exactly the keys this node has cached; a want-list
// of those keys plus one it lacks comes back as exactly the cached
// entries, in the entry codec, with the missing key absent.
func TestPeerDigestThenFetch(t *testing.T) {
	_, ts := newPeerTestServer(t, deadPeerURL(t), 300*time.Millisecond, time.Minute)

	var bodies [][]byte
	for seed := int64(0); seed < 3; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
		resp, b := post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 1e6}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		bodies = append(bodies, b)
	}

	resp, raw := get(t, ts, cluster.DigestPath)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest: status %d", resp.StatusCode)
	}
	keys, err := cluster.DecodeDigest(bytes.NewReader(raw), 16)
	if err != nil {
		t.Fatalf("digest does not decode: %v", err)
	}
	if len(keys) != len(bodies) {
		t.Fatalf("digest lists %d keys, want %d", len(keys), len(bodies))
	}

	absent := cluster.Key{0xff}
	var want bytes.Buffer
	if err := cluster.EncodeDigest(&want, append(keys, absent)); err != nil {
		t.Fatal(err)
	}
	resp, raw = post(t, ts, cluster.FetchPath, want.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch: status %d: %s", resp.StatusCode, raw)
	}
	entries, err := cluster.DecodeSnapshot(bytes.NewReader(raw), 16, 1<<20)
	if err != nil {
		t.Fatalf("fetch answer does not decode: %v", err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("fetch answered %d entries, want %d", len(entries), len(keys))
	}
	for i, e := range entries {
		if e.Key == absent {
			t.Fatal("fetch answered a key this node does not hold")
		}
		if e.Key != keys[i] {
			t.Fatalf("entry %d: key out of want-list order", i)
		}
		found := false
		for _, b := range bodies {
			if bytes.Equal(e.Body, b) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("fetched entry body not among served responses: %s", e.Body)
		}
	}
}

// TestSyncPullsBoundFromFullerPeer: a peer whose cache holds more
// entries than cluster.MaxDigestKeys serves a digest of exactly that many
// keys, and a replica's sync round accepts and pulls all of them — every
// node serves and decodes digests under the same bound.
func TestSyncPullsBoundFromFullerPeer(t *testing.T) {
	tsA, tsB := httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	urlA := "http://" + tsA.Listener.Addr().String()
	urlB := "http://" + tsB.Listener.Addr().String()
	node := func(ts *httptest.Server, self string) *Server {
		topo, err := cluster.NewTopology([]string{urlA, urlB}, self)
		if err != nil {
			t.Fatal(err)
		}
		// Two nodes at the default two replicas: each replicates every key.
		s := New(Options{CacheEntries: 8 * cluster.MaxDigestKeys, Cluster: &ClusterConfig{Topology: topo}})
		ts.Config.Handler = s
		ts.Start()
		t.Cleanup(ts.Close)
		return s
	}
	full, replica := node(tsA, urlA), node(tsB, urlB)
	const held = 4 * cluster.MaxDigestKeys
	for i := 0; i < held; i++ {
		full.cache.Put(sha256.Sum256(strconv.AppendInt(nil, int64(i), 10)), []byte(strconv.Itoa(i)+"\n"))
	}
	if got := full.CacheStats().Entries; got != held {
		t.Fatalf("peer holds %d entries, want %d", got, held)
	}
	pulled, err := replica.SyncOnce(context.Background())
	if err != nil {
		t.Fatalf("sync round: %v", err)
	}
	if pulled != cluster.MaxDigestKeys || replica.CacheStats().Entries != cluster.MaxDigestKeys {
		t.Fatalf("pulled %d entries (%d held), want the bound %d", pulled, replica.CacheStats().Entries, cluster.MaxDigestKeys)
	}
}

// TestSingleNodeHasNoClusterSurface: without a cluster config the peer
// routes do not exist and metrics carry no cluster section — single-node
// deployments keep exactly the old surface.
func TestSingleNodeHasNoClusterSurface(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, _ := get(t, ts, cluster.DigestPath)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("digest endpoint exposed in single-node mode")
	}
	if s.Metrics().Cluster != nil {
		t.Fatal("metrics carry a cluster section in single-node mode")
	}
	if n, err := s.SyncOnce(context.Background()); n != 0 || err != nil {
		t.Fatalf("single-node SyncOnce = (%d, %v), want (0, nil)", n, err)
	}
}
