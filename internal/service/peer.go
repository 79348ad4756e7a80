package service

// Peer-aware serving: the glue between the HTTP handlers and
// internal/cluster. In cluster mode every canonical cache key has an
// ordered replica set of R owner daemons (rendezvous ranking over the
// key bytes); the request flow on each node becomes
//
//	local cache hit              -> X-Cache: hit        (second-tier hits included)
//	miss, self is a replica      -> solve locally       (miss/collapsed, as single-node)
//	miss, a replica is up        -> proxy to replicas   (remote-hit / remote-miss /
//	                                hedged-hit), install the bytes locally
//	                                as a second-tier hit
//	miss, all replicas down      -> solve locally       (fallback)
//
// Forwards are hedged: the first replica is tried immediately, and if it
// has neither answered nor failed within the hedge delay the next
// replica joins the race; the first usable answer wins and the losers
// are cancelled. Peer failure is never a client-visible error: transport
// failures and forward timeouts mark a replica down for a
// capped-exponential backoff window and the request degrades to the next
// replica or the local solve, which produces byte-identical bodies (the
// solvers are deterministic) at single-node latency. Responses proxied
// from a replica are its rendered bytes verbatim, so every tier serves
// exactly the same body for the same request.
//
// The topology is swappable at runtime (ReloadTopology): requests in
// flight finish under the epoch they started with, new requests route
// under the new view, and the reloading node then runs one anti-entropy
// round under it to pull the keys it now replicates.
//
// # Self-healing membership
//
// Every epoch carries an epoch-stamped membership view
// (cluster.Members). Three loops keep the fleet converged without
// operators editing peers files on every host:
//
//   - Join: a node booted from a seed list announces itself to every
//     peer it learned about (AnnounceSelf -> POST /v1/peer/join); the
//     receivers merge the view (equal epochs union, so concurrent joins
//     commute) and swap in the grown topology.
//   - Gossip: a periodic tick pulls one live peer's view
//     (GossipOnce -> GET /v1/peer/members) and adopts the merge, so a
//     join or an operator reload reaches nodes the initiator never
//     contacted. Operator reloads bump the epoch, and a higher epoch
//     wins wholesale — removal propagates; gossip alone never removes.
//   - Anti-entropy: a sync round (SyncOnce) pulls each live peer's
//     bounded cache-key digest (GET /v1/peer/digest) and fetches the
//     entries this node replicates but does not hold
//     (POST /v1/peer/fetch), so a replica set converges digest-equal
//     within one round per peer even with zero client traffic. It is
//     the only way entries move between nodes: a booting node runs one
//     round at once, a topology reload runs one under the new view, and
//     the periodic tick runs the rest. Inline read-repair stays what it
//     always was: relayed remote-hit bytes install locally as
//     second-tier hits.
//
// A node never adopts a view that excludes itself — it keeps its own
// epoch, counts the rejection, and every peer exchange carries a
// membership stamp (X-Pipesched-Membership) whose mismatches are
// counted on both sides, so a divergent fleet (nodes watching different
// peers files, a half-landed reload) is visible in /metrics before it
// misroutes.

import (
	"context"
	"errors"
	"hash/fnv"
	"net/http"
	"sync/atomic"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/service/cache"
)

// DefaultReplicas is the replica-set size per key when ClusterConfig
// leaves Replicas zero: two owners, so one death costs no cache
// coverage.
const DefaultReplicas = 2

// ClusterConfig configures peer-aware serving. The Topology is built
// once by the caller (cluster.NewTopology validates the peer list), so
// Server construction stays infallible.
type ClusterConfig struct {
	// Topology is the fleet view: normalised peer list plus self index.
	// It is the initial epoch; ReloadTopology swaps in successors.
	Topology *cluster.Topology
	// Epoch is the membership epoch Topology represents: 0 for a fresh
	// static boot, the seed's epoch for a -join bootstrap. Operator
	// reloads bump it; gossip adopts higher ones.
	Epoch uint64
	// Replicas is the per-key replica-set size R; 0 selects
	// DefaultReplicas (2), and values beyond the fleet size clamp.
	Replicas int
	// ForwardTimeout bounds one replica-forward round trip; 0 selects
	// cluster.DefaultForwardTimeout (2s).
	ForwardTimeout time.Duration
	// HedgeAfter is how long the newest forward attempt may stay
	// unanswered before the next replica joins the race; 0 selects a
	// quarter of ForwardTimeout (a p95-ish bound for a healthy peer).
	// Negative disables hedging (each replica gets the full timeout).
	HedgeAfter time.Duration
	// PeerBackoff is the base down window after a peer failure; 0
	// selects cluster.DefaultBackoff (5s). Consecutive failures double
	// it up to MaxPeerBackoff.
	PeerBackoff time.Duration
	// MaxPeerBackoff caps the exponential window; 0 selects
	// cluster.DefaultMaxBackoff (60s).
	MaxPeerBackoff time.Duration
	// JitterSeed seeds the backoff jitter; 0 derives a per-node seed
	// from the advertise URL so a fleet never re-probes in lockstep.
	JitterSeed int64
	// SnapshotEntries bounds both the keys a served digest lists and the
	// entries accepted from one fetch; 0 selects the default (1024).
	SnapshotEntries int
	// Transport overrides the peer client's HTTP transport — the hook
	// the chaos suite uses to inject faults in-process. nil selects the
	// default pooled transport.
	Transport http.RoundTripper
}

const defaultSnapshotEntries = 1024

func (c *ClusterConfig) snapshotEntries() int {
	if c.SnapshotEntries <= 0 {
		return defaultSnapshotEntries
	}
	return c.SnapshotEntries
}

func (c *ClusterConfig) replicas() int {
	if c.Replicas <= 0 {
		return DefaultReplicas
	}
	return c.Replicas
}

func (c *ClusterConfig) hedgeAfter() time.Duration {
	if c.HedgeAfter == 0 {
		t := c.ForwardTimeout
		if t <= 0 {
			t = cluster.DefaultForwardTimeout
		}
		return t / 4
	}
	if c.HedgeAfter < 0 {
		// Disabled: each replica gets the full forward timeout before
		// the next one is tried.
		t := c.ForwardTimeout
		if t <= 0 {
			t = cluster.DefaultForwardTimeout
		}
		return t
	}
	return c.HedgeAfter
}

// peerEpoch is one immutable (topology, client, membership) triple.
// Swapping epochs atomically is what makes membership dynamic: a
// request loads the pointer once and routes consistently under that
// view even while a reload or gossip merge lands. The membership stamp
// is derived once here, so every exchange under this epoch stamps
// identically.
type peerEpoch struct {
	topo      *cluster.Topology
	client    *cluster.Client
	members   cluster.Members
	stamp     string
	installed time.Time
}

// peerRouter holds the cluster state of one Server: the current epoch,
// the routing parameters shared by all epochs, and the peer-tier
// counters.
type peerRouter struct {
	epoch           atomic.Pointer[peerEpoch]
	replicas        int
	hedgeAfter      time.Duration
	snapshotEntries int

	// selfURL is this node's normalised advertise URL — constant across
	// epochs, the anchor every membership install re-validates against.
	selfURL string

	// Client construction parameters, kept so epoch swaps can build a
	// health table sized to the new fleet.
	timeout    time.Duration
	backoff    time.Duration
	maxBackoff time.Duration
	jitterSeed int64
	transport  http.RoundTripper

	forwarded     atomic.Uint64 // requests proxied to a replica, any outcome
	remoteHits    atomic.Uint64 // proxied, replica had it cached
	remoteMisses  atomic.Uint64 // proxied, replica solved it
	hedgedHits    atomic.Uint64 // proxied, a hedge attempt won the race
	fallbacks     atomic.Uint64 // all replicas down or forwards failed; solved locally
	ownedForwards atomic.Uint64 // forwarded requests served for peers
	reloads       atomic.Uint64 // topology epochs swapped in (operator or gossip)

	gossipCursor    atomic.Uint64 // round-robin start for GossipOnce
	gossipExchanges atomic.Uint64 // membership views pulled by gossip
	gossipMerges    atomic.Uint64 // gossip pulls that changed our view
	joinsServed     atomic.Uint64 // POST /v1/peer/join requests handled
	syncRounds      atomic.Uint64 // anti-entropy rounds run (boot, reload and tick)
	syncPulled      atomic.Uint64 // entries installed by anti-entropy
	mismatches      atomic.Uint64 // peer exchanges with a foreign membership stamp
	rejected        atomic.Uint64 // remote views refused (self-excluding or invalid)
	lastMismatch    atomic.Int64  // unix-nano of the newest stamp mismatch; 0 = never
}

// noteMismatch records one membership-stamp disagreement.
func (p *peerRouter) noteMismatch() {
	p.mismatches.Add(1)
	p.lastMismatch.Store(time.Now().UnixNano())
}

// observeStamp folds an incoming peer exchange's membership stamp into
// the disagreement counters. An unstamped request (an older build, a
// bare curl) is not a disagreement.
func (p *peerRouter) observeStamp(r *http.Request) {
	if got := r.Header.Get(cluster.MembershipHeader); got != "" && got != p.epoch.Load().stamp {
		p.noteMismatch()
	}
}

// stampResponse marks a peer-exchange response with our membership
// stamp, so the calling peer can detect the disagreement on its side
// too. Client-facing responses never pass through here.
func (p *peerRouter) stampResponse(w http.ResponseWriter) {
	w.Header().Set(cluster.MembershipHeader, p.epoch.Load().stamp)
}

// newEpoch builds one immutable epoch around topo: the canonical
// membership view (epoch number + the topology's normalised sorted
// list), its stamp, and a peer client sized to the fleet and bound to
// that stamp.
func (p *peerRouter) newEpoch(topo *cluster.Topology, epochNum uint64) *peerEpoch {
	m := cluster.NewMembers(epochNum, topo.Peers())
	seed := p.jitterSeed
	if seed == 0 {
		// Derive a per-node seed from the advertise URL: distinct on
		// every node, stable across restarts.
		h := fnv.New64a()
		h.Write([]byte(topo.Peer(topo.Self())))
		seed = int64(h.Sum64())
	}
	client := cluster.NewClient(cluster.ClientConfig{
		Peers:      topo.Size(),
		Timeout:    p.timeout,
		Backoff:    p.backoff,
		MaxBackoff: p.maxBackoff,
		JitterSeed: seed,
		Transport:  p.transport,
		Stamp:      m.Stamp(),
		OnStampMismatch: func(int, string) {
			p.noteMismatch()
		},
	})
	return &peerEpoch{
		topo:      topo,
		client:    client,
		members:   m,
		stamp:     m.Stamp(),
		installed: time.Now(),
	}
}

// newPeerRouter builds the router, or nil when cfg is absent (single-node
// mode).
func newPeerRouter(cfg *ClusterConfig) *peerRouter {
	if cfg == nil || cfg.Topology == nil {
		return nil
	}
	p := &peerRouter{
		replicas:        cfg.replicas(),
		hedgeAfter:      cfg.hedgeAfter(),
		snapshotEntries: cfg.snapshotEntries(),
		selfURL:         cfg.Topology.Peer(cfg.Topology.Self()),
		timeout:         cfg.ForwardTimeout,
		backoff:         cfg.PeerBackoff,
		maxBackoff:      cfg.MaxPeerBackoff,
		jitterSeed:      cfg.JitterSeed,
		transport:       cfg.Transport,
	}
	p.epoch.Store(p.newEpoch(cfg.Topology, cfg.Epoch))
	return p
}

// isPeerForward reports whether r was already forwarded once by a peer.
func isPeerForward(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardHeader) != ""
}

// route decides how a locally-missed key is served. It returns
// served=true with a replica's body and tier when the request was
// successfully proxied; otherwise served=false and the caller solves
// locally, with fellBack=true when a forward was warranted but failed
// (the X-Cache tier the caller should then report is "fallback").
func (p *peerRouter) route(w http.ResponseWriter, r *http.Request, key cache.Key, path string, raw []byte) (body []byte, tier int, served, fellBack bool) {
	if isPeerForward(r) {
		// We are a replica being asked by a peer (or a topology
		// disagreement's second hop): always serve locally, never
		// forward again — loops are structurally impossible. The
		// exchange is peer-to-peer, so it carries membership stamps in
		// both directions; a client-facing response never does
		// (writeCachedTier sets only its three fixed headers, but the
		// stamp below lands on w only on this branch).
		p.ownedForwards.Add(1)
		p.observeStamp(r)
		p.stampResponse(w)
		return nil, 0, false, false
	}
	ep := p.epoch.Load()
	var ownerBuf [4]int
	owners := ep.topo.Owners(cluster.Key(key), p.replicas, ownerBuf[:0])
	candidates := owners[:0]
	for _, o := range owners {
		if o == ep.topo.Self() {
			// This node is in the key's replica set: the local solve IS
			// the authoritative copy, no forward needed.
			return nil, 0, false, false
		}
		if ep.client.Available(o) {
			candidates = append(candidates, o)
		}
	}
	if len(candidates) == 0 {
		p.fallbacks.Add(1)
		return nil, 0, false, true
	}
	urls := make([]string, len(candidates))
	for i, o := range candidates {
		urls[i] = ep.topo.Peer(o)
	}
	res, err := ep.client.ForwardHedged(r.Context(), candidates, urls, path, raw, p.hedgeAfter)
	if err != nil || res.Status != http.StatusOK {
		// Transport failures marked the replicas down inside the client;
		// a non-200 from a live replica (e.g. its own 504 under load)
		// also degrades to the deterministic local solve rather than
		// relaying a status this node can do better than.
		p.fallbacks.Add(1)
		return nil, 0, false, true
	}
	p.forwarded.Add(1)
	if res.Hedged {
		// A hedge attempt beat (or replaced) the first replica: the
		// client saw no slow-path stall, which is worth its own tier.
		p.hedgedHits.Add(1)
		return res.Body, tierHedgedHit, true, false
	}
	switch res.XCache {
	case "hit", "collapsed":
		p.remoteHits.Add(1)
		return res.Body, tierRemoteHit, true, false
	default:
		p.remoteMisses.Add(1)
		return res.Body, tierRemoteMiss, true, false
	}
}

// handleMembers serves this node's membership view — the seed a joining
// node bootstraps from and the gossip pull every node runs periodically.
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	p := s.peers
	p.observeStamp(r)
	p.stampResponse(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := cluster.EncodeMembers(w, p.epoch.Load().members); err != nil {
		s.logger.Printf("pipeschedd: members stream: %v", err)
	}
}

// handleJoin accepts a pushed membership view (a joining node's
// announce), merges it under the fleet rules, installs the merged view
// if it grew ours, and answers with the view now in force — so the
// joiner immediately learns about peers its seed knew and it did not.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	p := s.peers
	p.observeStamp(r)
	remote, err := cluster.DecodeMembers(http.MaxBytesReader(w, r.Body, s.opts.maxBody()), cluster.MaxMembers)
	if err != nil {
		p.stampResponse(w)
		writeErrorBody(w, http.StatusBadRequest, err.Error())
		return
	}
	p.joinsServed.Add(1)
	now := s.adoptMembers(remote)
	// Stamp after the merge: the response carries the view it encodes.
	w.Header().Set(cluster.MembershipHeader, now.Stamp())
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := cluster.EncodeMembers(w, now); err != nil {
		s.logger.Printf("pipeschedd: join stream: %v", err)
	}
}

// handleDigest serves the bounded key digest of this node's cache — the
// anti-entropy comparison input. Keys only, no bodies: a sync round
// against a converged replica costs one small exchange per peer.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	p := s.peers
	p.observeStamp(r)
	p.stampResponse(w)
	items := s.cache.Snapshot(p.snapshotEntries)
	keys := make([]cluster.Key, len(items))
	for i, it := range items {
		keys[i] = cluster.Key(it.Key)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := cluster.EncodeDigest(w, keys); err != nil {
		s.logger.Printf("pipeschedd: digest stream: %v", err)
	}
}

// handleFetch answers an anti-entropy want-list: the subset of the
// requested keys this node holds, streamed in the entry codec. Keys we
// do not hold are simply absent — the puller treats the answer as best
// effort.
func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	p := s.peers
	p.observeStamp(r)
	p.stampResponse(w)
	keys, err := cluster.DecodeDigest(http.MaxBytesReader(w, r.Body, s.opts.maxBody()), p.snapshotEntries)
	if err != nil {
		writeErrorBody(w, http.StatusBadRequest, err.Error())
		return
	}
	entries := make([]cluster.Entry, 0, len(keys))
	for _, k := range keys {
		if body, ok := s.cache.Get(cache.Key(k)); ok {
			entries = append(entries, cluster.Entry{Key: k, Body: body})
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := cluster.EncodeSnapshot(w, entries); err != nil {
		s.logger.Printf("pipeschedd: fetch stream: %v", err)
	}
}

// ReloadTopology swaps a new fleet view in atomically, then runs one
// anti-entropy round (SyncOnce) under it, so this node pulls the keys
// whose replica set it just joined and a membership change costs no
// cache coverage. The new epoch's client starts with every peer up, so
// the round asks every peer. Requests in flight finish under the epoch
// they started with; new requests route under topo immediately —
// correctness never waits for the round (a key not yet pulled simply
// misses and forwards or solves). The number of pulled entries is
// returned; fetch failures are collected, not fatal. Calling it on a
// single-node server is an error: there is no peer surface to reload.
func (s *Server) ReloadTopology(ctx context.Context, topo *cluster.Topology) (int, error) {
	if s.peers == nil {
		return 0, errors.New("service: single-node server has no topology to reload")
	}
	p := s.peers
	// An operator reload bumps the membership epoch: it is the one
	// mechanism that may REMOVE peers, and removal must dominate the
	// equal-epoch union rule gossip merges use — a higher epoch wins
	// wholesale, so the shrunk view propagates instead of being
	// resurrected by the next exchange. A reload onto the peer list
	// already in force is a no-op — without this, a SIGHUP racing a
	// gossip adoption of the same view (both survivors of a shrink watch
	// the same file AND gossip with each other) would bump the epoch
	// twice for one operator decision. The CAS closes that race: if a
	// gossip install lands between the equality check and the swap, the
	// reload re-checks against the winner's view.
	for {
		old := p.epoch.Load()
		if cluster.NewMembers(old.members.Epoch, topo.Peers()).Equal(old.members) {
			return 0, nil
		}
		if p.epoch.CompareAndSwap(old, p.newEpoch(topo, old.members.Epoch+1)) {
			break
		}
	}
	p.reloads.Add(1)
	return s.SyncOnce(ctx)
}

// Topology returns the server's current fleet view, or nil in
// single-node mode.
func (s *Server) Topology() *cluster.Topology {
	if s.peers == nil {
		return nil
	}
	return s.peers.epoch.Load().topo
}

// Membership returns the server's current membership view (zero value
// in single-node mode).
func (s *Server) Membership() cluster.Members {
	if s.peers == nil {
		return cluster.Members{}
	}
	return s.peers.epoch.Load().members
}

// adoptMembers merges a remote membership view into the current epoch
// and installs the merged view if it differs, returning whichever view
// is in force afterwards. Installation is guarded twice: a view that
// excludes this node is never adopted (it is either an operator
// decommissioning us — then the operator stops the process — or a
// foreign fleet; adopting it would leave this node computing ownership
// none of its own requests can route under), and a view whose peer list
// fails topology validation cannot poison the swap — the old epoch
// simply stays. Both refusals count as rejections and keep the
// disagreement visible. Concurrent adopters CAS-race; the loser retries
// against the winner's epoch, so merges from gossip, join handling and
// announces interleave safely.
func (s *Server) adoptMembers(remote cluster.Members) cluster.Members {
	p := s.peers
	for {
		ep := p.epoch.Load()
		merged, changed := ep.members.Merge(remote)
		if !changed {
			return ep.members
		}
		if !merged.Contains(p.selfURL) {
			p.rejected.Add(1)
			p.noteMismatch()
			return ep.members
		}
		topo, err := cluster.NewTopology(merged.Peers, p.selfURL)
		if err != nil {
			p.rejected.Add(1)
			return ep.members
		}
		ne := p.newEpoch(topo, merged.Epoch)
		if p.epoch.CompareAndSwap(ep, ne) {
			p.reloads.Add(1)
			return ne.members
		}
		// Lost an install race; re-merge against the winner's view.
	}
}

// GossipOnce performs one membership exchange: it pulls the member list
// of the next live peer (round-robin across ticks) and adopts the
// merged view. changed reports whether our view moved. A gossip-driven
// install runs no sync round of its own — the anti-entropy loop heals
// any coverage gap on its own cadence. No reachable peer is not an
// error; every reachable peer failing is.
func (s *Server) GossipOnce(ctx context.Context) (changed bool, err error) {
	if s.peers == nil {
		return false, nil
	}
	p := s.peers
	ep := p.epoch.Load()
	n := ep.topo.Size()
	if n < 2 {
		return false, nil
	}
	start := int(p.gossipCursor.Add(1) % uint64(n))
	var errs []error
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if i == ep.topo.Self() || !ep.client.Available(i) {
			continue
		}
		m, err := ep.client.FetchMembers(ctx, i, ep.topo.Peer(i))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		p.gossipExchanges.Add(1)
		before := ep.members
		if now := s.adoptMembers(m); !now.Equal(before) {
			p.gossipMerges.Add(1)
			return true, nil
		}
		return false, nil
	}
	return false, errors.Join(errs...)
}

// AnnounceSelf pushes this node's membership view to every peer in it
// (POST /v1/peer/join) and adopts each merged answer — the joining
// node's immediate propagation path after a seed-list bootstrap. The
// periodic gossip tick is the backstop for peers an announce could not
// reach; failures are collected, never fatal.
func (s *Server) AnnounceSelf(ctx context.Context) error {
	if s.peers == nil {
		return nil
	}
	p := s.peers
	ep := p.epoch.Load()
	var errs []error
	for i := 0; i < ep.topo.Size(); i++ {
		if i == ep.topo.Self() {
			continue
		}
		m, err := ep.client.Join(ctx, i, ep.topo.Peer(i), ep.members)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		s.adoptMembers(m)
	}
	return errors.Join(errs...)
}

// SyncOnce performs one replica anti-entropy round: for every live peer
// it pulls the bounded key digest of that peer's cache and fetches the
// entries this node replicates (self in the key's replica set) but does
// not hold, installing them locally. A replica set with zero client
// traffic therefore converges digest-equal within one round per
// direction. The number of installed entries is returned; per-peer
// failures are collected, never fatal — a missed round costs freshness,
// not correctness.
func (s *Server) SyncOnce(ctx context.Context) (int, error) {
	if s.peers == nil {
		return 0, nil
	}
	p := s.peers
	p.syncRounds.Add(1)
	ep := p.epoch.Load()
	pulled := 0
	var errs []error
	var own []int
	for i := 0; i < ep.topo.Size(); i++ {
		if i == ep.topo.Self() || !ep.client.Available(i) {
			continue
		}
		keys, err := ep.client.FetchDigest(ctx, i, ep.topo.Peer(i), p.snapshotEntries)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		want := keys[:0]
		for _, k := range keys {
			own = ep.topo.Owners(k, p.replicas, own)
			if !containsInt(own, ep.topo.Self()) {
				continue
			}
			if _, ok := s.cache.Get(cache.Key(k)); ok {
				continue
			}
			want = append(want, k)
		}
		if len(want) == 0 {
			continue
		}
		entries, err := ep.client.FetchEntries(ctx, i, ep.topo.Peer(i), want, p.snapshotEntries, int(s.opts.maxBody()))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, e := range entries {
			s.cache.Put(cache.Key(e.Key), e.Body)
		}
		pulled += len(entries)
	}
	p.syncPulled.Add(uint64(pulled))
	return pulled, errors.Join(errs...)
}

// RunSelfHealing runs the background membership-gossip and replica
// anti-entropy loops until ctx is cancelled. A non-positive interval
// disables the corresponding loop. With the sync loop on, the first
// round runs as soon as the loop starts: that round is a booting node's
// warm-up, pulling the entries it replicates from its peers instead of
// waiting one interval cold. The daemon spawns this; tests drive
// GossipOnce and SyncOnce directly for determinism. Each round is
// bounded so one stuck peer cannot wedge the loop past the next tick.
func (s *Server) RunSelfHealing(ctx context.Context, gossipEvery, syncEvery time.Duration) {
	if s.peers == nil {
		return
	}
	var gossipC, syncC <-chan time.Time
	if gossipEvery > 0 {
		t := time.NewTicker(gossipEvery)
		defer t.Stop()
		gossipC = t.C
	}
	if syncEvery > 0 {
		t := time.NewTicker(syncEvery)
		defer t.Stop()
		syncC = t.C
	}
	if gossipC == nil && syncC == nil {
		return
	}
	tick := func(run func(context.Context) error) {
		tctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := run(tctx); err != nil && ctx.Err() == nil {
			s.logger.Printf("pipeschedd: self-healing: %v", err)
		}
	}
	syncRound := func(c context.Context) error {
		_, err := s.SyncOnce(c)
		return err
	}
	if syncC != nil {
		tick(syncRound)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-gossipC:
			tick(func(c context.Context) error {
				_, err := s.GossipOnce(c)
				return err
			})
		case <-syncC:
			tick(syncRound)
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ClusterMetricsSnapshot is the "cluster" section of GET /metrics,
// present only in peer mode.
type ClusterMetricsSnapshot struct {
	Peers         int    `json:"peers"`
	Self          int    `json:"self"`
	Replicas      int    `json:"replicas"`
	PeersDown     int    `json:"peers_down"`
	Forwarded     uint64 `json:"forwarded"`
	RemoteHits    uint64 `json:"remote_hits"`
	RemoteMisses  uint64 `json:"remote_misses"`
	HedgedHits    uint64 `json:"hedged_hits"`
	Fallbacks     uint64 `json:"fallbacks"`
	OwnedForwards uint64 `json:"owned_forwards"`
	Reloads       uint64 `json:"reloads"`

	// Self-healing membership: the epoch-stamped view, its wire stamp,
	// and the disagreement/convergence observables. MembershipAgeSeconds
	// is how long the current view has been in force;
	// ConvergedForSeconds is the time since the last stamp mismatch was
	// observed (capped at the view's age) — a fleet that has gossiped
	// quietly for a while is converged.
	MembershipEpoch      uint64  `json:"membership_epoch"`
	MembershipHash       string  `json:"membership_hash"`
	MembershipMismatches uint64  `json:"membership_mismatches"`
	MembershipsRejected  uint64  `json:"memberships_rejected"`
	MembershipAgeSeconds float64 `json:"membership_age_seconds"`
	ConvergedForSeconds  float64 `json:"converged_for_seconds"`
	GossipExchanges      uint64  `json:"gossip_exchanges"`
	GossipMerges         uint64  `json:"gossip_merges"`
	JoinsServed          uint64  `json:"joins_served"`
	SyncRounds           uint64  `json:"sync_rounds"`
	SyncPulled           uint64  `json:"sync_pulled"`
}

// snapshot collects the peer-tier counters.
func (p *peerRouter) snapshot() *ClusterMetricsSnapshot {
	if p == nil {
		return nil
	}
	ep := p.epoch.Load()
	down := 0
	for i := 0; i < ep.topo.Size(); i++ {
		if i != ep.topo.Self() && !ep.client.Available(i) {
			down++
		}
	}
	now := time.Now()
	age := now.Sub(ep.installed).Seconds()
	converged := age
	if lm := p.lastMismatch.Load(); lm != 0 {
		if c := now.Sub(time.Unix(0, lm)).Seconds(); c < converged {
			converged = c
		}
	}
	if converged < 0 {
		converged = 0
	}
	return &ClusterMetricsSnapshot{
		Peers:         ep.topo.Size(),
		Self:          ep.topo.Self(),
		Replicas:      p.replicas,
		PeersDown:     down,
		Forwarded:     p.forwarded.Load(),
		RemoteHits:    p.remoteHits.Load(),
		RemoteMisses:  p.remoteMisses.Load(),
		HedgedHits:    p.hedgedHits.Load(),
		Fallbacks:     p.fallbacks.Load(),
		OwnedForwards: p.ownedForwards.Load(),
		Reloads:       p.reloads.Load(),

		MembershipEpoch:      ep.members.Epoch,
		MembershipHash:       ep.stamp,
		MembershipMismatches: p.mismatches.Load(),
		MembershipsRejected:  p.rejected.Load(),
		MembershipAgeSeconds: age,
		ConvergedForSeconds:  converged,
		GossipExchanges:      p.gossipExchanges.Load(),
		GossipMerges:         p.gossipMerges.Load(),
		JoinsServed:          p.joinsServed.Load(),
		SyncRounds:           p.syncRounds.Load(),
		SyncPulled:           p.syncPulled.Load(),
	}
}
