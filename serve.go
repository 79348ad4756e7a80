package pipesched

import (
	"context"
	"net"

	"pipesched/internal/cluster"
	"pipesched/internal/service"
)

// The serving layer, built on internal/service: a long-lived HTTP daemon
// exposing the solvers over a JSON API with a canonical-instance result
// cache and singleflight deduplication. The hot path is built for high
// QPS: the result cache is sharded by key bits so cores never serialise
// on one mutex, request decode and canonical hashing run on pooled
// scratch, each endpoint's timings go into one small locked record, and
// cache hits are served as pre-rendered bytes in a single write.
// cmd/pipeschedd is the packaged daemon; these façade hooks embed the
// same server in any Go process.
type (
	// Server is the HTTP solver service. It implements http.Handler, so
	// it mounts under any mux or http.Server; use its Serve method (or
	// the Serve function below) for a managed listen-drain-stop
	// lifecycle.
	Server = service.Server
	// ServerOptions configure a Server: cache bound, per-request
	// timeout, drain timeout, body limit and logger. The zero value is
	// fully usable. Every Server in a process solves on one pool.
	ServerOptions = service.Options
	// ServerMetrics is the snapshot served by GET /metrics.
	ServerMetrics = service.MetricsSnapshot
	// ServerClusterConfig opts a Server into peer-aware fleet serving
	// via ServerOptions.Cluster: a Topology built by NewClusterTopology
	// plus the replication factor, forward timeout, hedge delay, and peer
	// backoff window and cap (zero values select the cluster defaults).
	// Each canonical cache key has an ordered replica set (default two
	// owners); local misses forward to the first available replica —
	// hedging to the next when it is slow — and install the relayed
	// bytes as a second-tier hit. Only when every replica is down does
	// the node degrade to a local solve. Entries move between nodes only
	// through anti-entropy rounds (Server.SyncOnce): Server.RunSelfHealing
	// runs one at start, and Server.ReloadTopology swaps the fleet view
	// at runtime and then runs one under it.
	ServerClusterConfig = service.ClusterConfig
	// ClusterTopology is the fleet view: the full normalized peer list
	// and this node's position in it. Build it with NewClusterTopology.
	ClusterTopology = cluster.Topology
)

// NewServer builds the HTTP solver service: POST /v1/solve, /v1/batch and
// /v1/sweep routed through the portfolio engine with per-request contexts
// and deadlines, plus GET /healthz and /metrics. Both platform kinds are
// served, dispatched by capability — comm-homogeneous instances race the
// paper's H1–H6 (and the exact DP where eligible), fully heterogeneous
// ones the F1/F5/F6 lane. Identical requests are
// canonically hashed into a sharded, bounded LRU result cache; concurrent
// identical requests collapse to one underlying solve.
func NewServer(opts ServerOptions) *Server { return service.New(opts) }

// NewClusterTopology validates a fleet description for peer-aware
// serving: peers is the base URL of every node in the fleet (this node
// included), advertise is this node's own entry. URLs are normalized
// (scheme defaulted to http, host lowercased, trailing slash dropped)
// before comparison, the list must be duplicate-free, and advertise
// must appear in it. Every node must be given the same peer list —
// ownership is rendezvous-hashed over the sorted normalized URLs, so
// identical lists mean identical ownership everywhere.
func NewClusterTopology(peers []string, advertise string) (*ClusterTopology, error) {
	return cluster.NewTopology(peers, advertise)
}

// Serve listens on addr and serves the solver API until ctx is cancelled,
// then shuts down gracefully: in-flight requests get ServerOptions.
// DrainTimeout to finish. It returns nil after a clean drain.
func Serve(ctx context.Context, addr string, opts ServerOptions) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return service.New(opts).Serve(ctx, ln)
}
