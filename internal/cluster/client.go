package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ForwardHeader marks a request as already forwarded once. A node
// receiving it serves the request locally no matter what its own
// ownership view says, so a transient topology disagreement (e.g. two
// nodes configured with different peer lists by mistake) degrades to one
// extra hop instead of a forwarding loop.
const ForwardHeader = "X-Pipesched-Forward"

// MembershipHeader carries a node's membership stamp (Members.Stamp) on
// every peer exchange, requests and responses alike. Two nodes with the
// same fleet view always stamp identically, so a mismatch observed on
// either side is exactly a membership disagreement — counted and
// surfaced in /metrics long before a divergent fleet misroutes.
const MembershipHeader = "X-Pipesched-Membership"

// Peer-only endpoints. MembersPath serves a node's membership view (the
// seed-join bootstrap source and the gossip pull); JoinPath accepts a
// pushed view and answers with the merged one; DigestPath serves the
// bounded key digest of the local cache; FetchPath accepts a digest
// want-list and answers with the matching entries in the entry codec.
const (
	MembersPath = "/v1/peer/members"
	JoinPath    = "/v1/peer/join"
	DigestPath  = "/v1/peer/digest"
	FetchPath   = "/v1/peer/fetch"
)

const (
	// DefaultForwardTimeout bounds one owner-forward round trip.
	DefaultForwardTimeout = 2 * time.Second
	// DefaultBackoff is the base down window after a peer's first
	// failure; consecutive failures double it up to DefaultMaxBackoff.
	DefaultBackoff = 5 * time.Second
	// DefaultMaxBackoff caps the exponential down window.
	DefaultMaxBackoff = 60 * time.Second
	// DefaultServerErrLimit is how many consecutive 5xx exchanges a peer
	// may return before it is treated as down. One stray 500 under load
	// is noise; a run of them is a sick peer that must stop absorbing
	// forwards.
	DefaultServerErrLimit = 3
)

// ForwardResult is the owner's answer to a proxied request.
type ForwardResult struct {
	Status int    // HTTP status from the owner
	XCache string // the owner's X-Cache disposition ("hit", "miss", ...)
	Body   []byte // the rendered response body, verbatim
}

// HedgedResult is the winning answer of a hedged forward race.
type HedgedResult struct {
	ForwardResult
	Peer   int  // topology index of the replica that answered
	Hedged bool // true when a hedge attempt (not the first replica) won
}

// ClientConfig parameterises a peer Client. The zero value of every
// field selects the documented default; only Peers is required.
type ClientConfig struct {
	// Peers is the fleet size the health table covers.
	Peers int
	// Timeout bounds each forward round trip (default
	// DefaultForwardTimeout).
	Timeout time.Duration
	// Backoff is the base down window after a peer's first failure
	// (default DefaultBackoff). Consecutive failures double the window.
	Backoff time.Duration
	// MaxBackoff caps the exponential window (default the larger of
	// DefaultMaxBackoff and Backoff).
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter added to every down
	// window, so a fleet of nodes configured with distinct seeds does
	// not re-probe a recovering peer in lockstep. 0 selects seed 1;
	// callers should derive the seed from their own identity (the
	// service layer uses the advertise URL's hash).
	JitterSeed int64
	// ServerErrLimit is how many consecutive completed-but-5xx
	// exchanges mark a peer down (default DefaultServerErrLimit).
	ServerErrLimit int
	// Transport overrides the HTTP transport, e.g. with a fault
	// injector in chaos tests. nil selects a pooled default.
	Transport http.RoundTripper
	// Stamp is this node's membership stamp (Members.Stamp), set on
	// every peer exchange as MembershipHeader and compared against the
	// peer's response stamp. Empty disables stamping. A Client is bound
	// to one membership epoch (the serving layer rebuilds it per swap),
	// so the stamp is immutable here.
	Stamp string
	// OnStampMismatch, when non-nil, fires once per exchange whose
	// response carried a different membership stamp than ours — the
	// disagreement-detection hook feeding /metrics.
	OnStampMismatch func(peer int, stamp string)
}

// peerHealth is one peer's failure state. Plain atomics: a racing
// update merely re-marks the same failing peer.
type peerHealth struct {
	// downUntil holds the unix-nano instant until which the peer is
	// considered down; 0 (or any past instant) means available.
	downUntil atomic.Int64
	// fails counts consecutive failures, driving the exponential window.
	fails atomic.Int32
	// srvErrs counts consecutive completed exchanges with a 5xx status.
	srvErrs atomic.Int32
}

// Client talks to the fleet: it forwards requests to key replicas
// (optionally hedged) and runs the membership and anti-entropy
// exchanges, tracking per-peer health so that a dead or slow peer costs
// at most one timeout per backoff window. All methods are safe for
// concurrent use.
type Client struct {
	hc          *http.Client
	timeout     time.Duration
	backoff     time.Duration
	maxBackoff  time.Duration
	srvErrLimit int32
	health      []peerHealth
	stamp       string
	onMismatch  func(peer int, stamp string)

	// jitter is the seeded source behind the backoff spread. A mutex
	// (not an atomic) because rand.Rand is not concurrency-safe; it is
	// touched only on the failure path.
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// NewClient builds a client from cfg.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultForwardTimeout
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.MaxBackoff < cfg.Backoff {
		cfg.MaxBackoff = cfg.Backoff
	}
	if cfg.ServerErrLimit <= 0 {
		cfg.ServerErrLimit = DefaultServerErrLimit
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	rt := cfg.Transport
	if rt == nil {
		rt = &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	return &Client{
		hc:          &http.Client{Transport: rt},
		timeout:     cfg.Timeout,
		backoff:     cfg.Backoff,
		maxBackoff:  cfg.MaxBackoff,
		srvErrLimit: int32(cfg.ServerErrLimit),
		health:      make([]peerHealth, cfg.Peers),
		stamp:       cfg.Stamp,
		onMismatch:  cfg.OnStampMismatch,
		jitter:      rand.New(rand.NewSource(cfg.JitterSeed)),
	}
}

// setStamp marks an outgoing peer exchange with our membership stamp.
func (c *Client) setStamp(h http.Header) {
	if c.stamp != "" {
		h.Set(MembershipHeader, c.stamp)
	}
}

// checkStamp compares a peer's response stamp against ours and fires
// the mismatch hook on disagreement. A peer that does not stamp (an
// older build) is not a disagreement.
func (c *Client) checkStamp(i int, h http.Header) {
	if c.stamp == "" {
		return
	}
	if got := h.Get(MembershipHeader); got != "" && got != c.stamp {
		if c.onMismatch != nil {
			c.onMismatch(i, got)
		}
	}
}

// Timeout returns the per-forward round-trip bound.
func (c *Client) Timeout() time.Duration { return c.timeout }

// Available reports whether peer i is currently believed reachable: a
// peer is down only inside the backoff window after a failure.
func (c *Client) Available(i int) bool {
	return time.Now().UnixNano() >= c.health[i].downUntil.Load()
}

// MarkDown records a failure against peer i, suppressing forwards to it
// for the current backoff window: base x 2^(consecutive failures - 1),
// capped at MaxBackoff, plus up to 50% seeded jitter so a fleet of
// recovering nodes spreads its re-probes instead of stampeding.
func (c *Client) MarkDown(i int) {
	n := c.health[i].fails.Add(1)
	window := c.backoff
	// Shift with an explicit cap: past ~32 doublings the window is
	// saturated anyway and an unchecked shift would overflow.
	for s := int32(1); s < n && window < c.maxBackoff; s++ {
		window *= 2
	}
	if window > c.maxBackoff {
		window = c.maxBackoff
	}
	c.jitterMu.Lock()
	j := time.Duration(c.jitter.Int63n(int64(window)/2 + 1))
	c.jitterMu.Unlock()
	c.health[i].downUntil.Store(time.Now().Add(window + j).UnixNano())
}

// markUp clears peer i's failure state after a healthy exchange, so one
// lucky probe restores the peer immediately — window, failure count and
// server-error run all reset to zero.
func (c *Client) markUp(i int) {
	h := &c.health[i]
	h.downUntil.Store(0)
	h.fails.Store(0)
	h.srvErrs.Store(0)
}

// observeStatus folds one completed exchange into peer i's health: any
// status below 500 proves a functioning peer and resets the failure
// state, while a run of ServerErrLimit consecutive 5xx responses marks
// the peer down exactly like a transport failure — a daemon stuck
// returning 500s must stop absorbing forwards, even though each
// individual exchange "completed". The caller still receives the result
// either way; a 5xx is never surfaced to the end client (the service
// layer degrades to the next replica or a local solve).
func (c *Client) observeStatus(i, status int) {
	if status < 500 {
		c.markUp(i)
		return
	}
	if c.health[i].srvErrs.Add(1) >= c.srvErrLimit {
		c.MarkDown(i)
	}
}

// Forward proxies one request body to peer i at baseURL+path and returns
// the peer's full answer. The round trip is bounded by the client's
// forward timeout (intersected with ctx); a transport failure or timeout
// marks the peer down and returns an error — the caller degrades to the
// next replica or a local solve. A completed exchange below status 500
// marks the peer up; a run of consecutive 5xx exchanges marks it down
// (see observeStatus) while still returning the result for the caller to
// interpret. A failure caused by the caller's own context (cancelled
// hedge loser, disconnected client) is not held against the peer.
func (c *Client) Forward(ctx context.Context, i int, baseURL, path string, body []byte) (ForwardResult, error) {
	fctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodPost, baseURL+path, bytes.NewReader(body))
	if err != nil {
		return ForwardResult{}, fmt.Errorf("cluster: forward request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, "1")
	c.setStamp(req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.MarkDown(i)
		}
		return ForwardResult{}, fmt.Errorf("cluster: forward to %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() == nil {
			c.MarkDown(i)
		}
		return ForwardResult{}, fmt.Errorf("cluster: forward read from %s: %w", baseURL, err)
	}
	c.observeStatus(i, resp.StatusCode)
	c.checkStamp(i, resp.Header)
	return ForwardResult{Status: resp.StatusCode, XCache: resp.Header.Get("X-Cache"), Body: b}, nil
}

// ForwardHedged races one forward across a key's replica set. The first
// replica is tried immediately; whenever the newest attempt has neither
// answered within hedgeAfter nor failed, the next replica joins the
// race. The first usable answer (a completed 200 exchange) wins and the
// losers are cancelled — a cancelled loser is not marked down, it lost a
// race, it did not fail. A failed or non-200 attempt immediately
// launches the next replica instead of waiting out the hedge delay.
//
// peers and urls are the replica set in rank order (peers[j] the
// topology index behind urls[j]). If no replica answers usably the last
// failure is returned: (zero, error) when every attempt errored, or the
// last completed non-200 result for the caller to interpret. Exactly one
// result is ever returned and every attempt goroutine exits promptly
// once the race settles, even when the caller's ctx is cancelled
// mid-hedge.
func (c *Client) ForwardHedged(ctx context.Context, peers []int, urls []string, path string, body []byte, hedgeAfter time.Duration) (HedgedResult, error) {
	if len(peers) == 1 {
		res, err := c.Forward(ctx, peers[0], urls[0], path, body)
		return HedgedResult{ForwardResult: res, Peer: peers[0]}, err
	}
	if hedgeAfter <= 0 {
		hedgeAfter = c.timeout / 4
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel() // settles the race: every loser's Forward aborts

	type attempt struct {
		res ForwardResult
		err error
		idx int // rank in the replica set
	}
	// Buffered to the full fan-out so attempt goroutines can always
	// deliver and exit, even after the caller has taken the winner.
	results := make(chan attempt, len(peers))
	launched := 0
	launch := func() {
		idx := launched
		launched++
		go func() {
			res, err := c.Forward(rctx, peers[idx], urls[idx], path, body)
			results <- attempt{res: res, err: err, idx: idx}
		}()
	}
	launch()

	var (
		last    attempt
		lastErr error = fmt.Errorf("cluster: no replica attempted")
		pending       = 1
		hedgeC  <-chan time.Time
	)
	if launched < len(peers) {
		hedgeC = time.After(hedgeAfter)
	}
	for pending > 0 {
		select {
		case a := <-results:
			pending--
			if a.err == nil && a.res.Status == http.StatusOK {
				return HedgedResult{ForwardResult: a.res, Peer: peers[a.idx], Hedged: a.idx > 0}, nil
			}
			last, lastErr = a, a.err
			// This rung is burnt; bring in the next replica right away.
			if launched < len(peers) {
				launch()
				pending++
				hedgeC = time.After(hedgeAfter)
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(peers) {
				launch()
				pending++
				if launched < len(peers) {
					hedgeC = time.After(hedgeAfter)
				}
			}
		case <-ctx.Done():
			return HedgedResult{}, ctx.Err()
		}
	}
	if lastErr != nil {
		return HedgedResult{}, lastErr
	}
	return HedgedResult{ForwardResult: last.res, Peer: peers[last.idx], Hedged: last.idx > 0}, nil
}

// doPeerGet issues one stamped GET exchange against peer i, with the
// shared health accounting: a transport failure not caused by the
// caller's own context marks the peer down, and any completed response
// has its membership stamp checked. The caller owns resp.Body.
func (c *Client) doPeerGet(ctx context.Context, i int, baseURL, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+path, nil)
	if err != nil {
		return nil, err
	}
	c.setStamp(req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.MarkDown(i)
		}
		return nil, err
	}
	c.checkStamp(i, resp.Header)
	return resp, nil
}

// FetchMembers pulls peer i's membership view — the gossip exchange.
// The round trip is bounded by the forward timeout: a membership
// message is tiny, and a gossip tick must never hang behind a stuck
// peer.
func (c *Client) FetchMembers(ctx context.Context, i int, baseURL string) (Members, error) {
	fctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	resp, err := c.doPeerGet(fctx, i, baseURL, MembersPath)
	if err != nil {
		return Members{}, fmt.Errorf("cluster: members from %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Members{}, fmt.Errorf("cluster: members from %s: status %d", baseURL, resp.StatusCode)
	}
	m, err := DecodeMembers(resp.Body, MaxMembers)
	if err != nil {
		return Members{}, fmt.Errorf("cluster: members from %s: %w", baseURL, err)
	}
	c.markUp(i)
	return m, nil
}

// Join pushes our membership view to peer i and returns the view the
// peer holds after merging — the announce half of the join protocol.
// Bounded by the forward timeout, like FetchMembers.
func (c *Client) Join(ctx context.Context, i int, baseURL string, m Members) (Members, error) {
	var buf bytes.Buffer
	if err := EncodeMembers(&buf, m); err != nil {
		return Members{}, fmt.Errorf("cluster: join encode: %w", err)
	}
	fctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodPost, baseURL+JoinPath, &buf)
	if err != nil {
		return Members{}, fmt.Errorf("cluster: join request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.setStamp(req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.MarkDown(i)
		}
		return Members{}, fmt.Errorf("cluster: join to %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	c.checkStamp(i, resp.Header)
	if resp.StatusCode != http.StatusOK {
		return Members{}, fmt.Errorf("cluster: join to %s: status %d", baseURL, resp.StatusCode)
	}
	merged, err := DecodeMembers(resp.Body, MaxMembers)
	if err != nil {
		return Members{}, fmt.Errorf("cluster: join to %s: %w", baseURL, err)
	}
	c.markUp(i)
	return merged, nil
}

// FetchDigest pulls the bounded key digest of peer i's cache — the
// anti-entropy comparison input. Bounded by the forward timeout.
func (c *Client) FetchDigest(ctx context.Context, i int, baseURL string, maxKeys int) ([]Key, error) {
	fctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	resp, err := c.doPeerGet(fctx, i, baseURL, DigestPath)
	if err != nil {
		return nil, fmt.Errorf("cluster: digest from %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: digest from %s: status %d", baseURL, resp.StatusCode)
	}
	keys, err := DecodeDigest(resp.Body, maxKeys)
	if err != nil {
		return nil, fmt.Errorf("cluster: digest from %s: %w", baseURL, err)
	}
	c.markUp(i)
	return keys, nil
}

// FetchEntries asks peer i for the listed keys' cache entries (the
// anti-entropy pull): the want-list travels as a digest message, the
// answer as an entry stream holding whatever subset the peer actually
// has, decoded under the given bounds (see DecodeSnapshot). Bounded by
// ctx alone — an entry pull may legitimately move more bytes than a
// forward — but a transport failure still marks the peer down.
func (c *Client) FetchEntries(ctx context.Context, i int, baseURL string, keys []Key, maxEntries, maxBody int) ([]Entry, error) {
	var buf bytes.Buffer
	if err := EncodeDigest(&buf, keys); err != nil {
		return nil, fmt.Errorf("cluster: fetch encode: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+FetchPath, &buf)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.setStamp(req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.MarkDown(i)
		}
		return nil, fmt.Errorf("cluster: fetch from %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	c.checkStamp(i, resp.Header)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: fetch from %s: status %d", baseURL, resp.StatusCode)
	}
	entries, err := DecodeSnapshot(resp.Body, maxEntries, maxBody)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch from %s: %w", baseURL, err)
	}
	c.markUp(i)
	return entries, nil
}
