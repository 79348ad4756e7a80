// Command pipeschedd is the solver service daemon: a long-lived HTTP
// process exposing the paper's heuristics, the exact DP and the
// concurrent portfolio/batch engine over a JSON API, with a sharded
// canonical-instance result cache and singleflight deduplication so that
// repeat and concurrent-identical traffic costs one solve and cache hits
// scale with cores (one power-of-two cache shard per core).
//
// Endpoints:
//
//	POST /v1/solve   {"pipeline": ..., "platform": ..., "bound": P,
//	                  "objective": "min-latency"|"min-period",
//	                  "mode": "portfolio"|"best"|"exact"|"H1".."H6"|"F1"|"F5"|"F6",
//	                  "timeout_ms": N}
//	POST /v1/batch   {"instances": [...], "bound": B, "relative_bound": bool,
//	                  "exact": bool}
//	POST /v1/sweep   {"pipeline": ..., "platform": ..., "points": N}
//	GET  /healthz    liveness probe
//	GET  /metrics    cache hit rate, in-flight gauge, per-endpoint latencies
//
// Platforms may be comm-homogeneous ({"speeds": [...], "bandwidth": b},
// the default kind) or fully heterogeneous ({"kind":
// "fully-heterogeneous", "speeds": [...], "links": [[...], ...]}); the
// solver lane is chosen by kind — the paper's H1–H6 and the exact DP on
// the former, the free-processor-choice F1/F5/F6 heuristics on the
// latter. Mode "exact" requires a comm-homogeneous platform.
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes
// immediately, in-flight requests get -drain-timeout to finish.
//
// The peer flags opt the daemon into a fleet sharing one replicated
// result-cache tier (see internal/cluster for the failure semantics):
//
//	-peers URLS           static fleet: comma-separated base URLs
//	-peers-file PATH      dynamic fleet: URLs from a file (one per line,
//	                      #-comments), reloaded on SIGHUP; the node then
//	                      runs one anti-entropy round under the new view
//	-join URLS            self-healing fleet: bootstrap the member list
//	                      from any reachable seed URL, announce this node,
//	                      and let gossip propagate the join (no peers file
//	                      anywhere; excludes -peers/-peers-file)
//	-advertise URL        this node's own entry in the peer list (required)
//	-replicas N           replica owners per key (default 2); a miss
//	                      forwards to the first available replica
//	-peer-timeout DUR     per-forward deadline (default 2s)
//	-hedge-after DUR      race the next replica when the first has not
//	                      answered within this delay (default
//	                      peer-timeout/4; negative disables hedging)
//	-peer-backoff DUR     initial down window after a failed or 5xx
//	                      exchange (default 5s)
//	-peer-max-backoff DUR cap for the exponential down window (default 60s)
//	-gossip-interval DUR  membership exchange with one live peer per tick
//	                      (default 10s; 0 disables gossip)
//	-sync-interval DUR    replica anti-entropy round at start and every
//	                      tick: pull peer cache digests, fetch missing
//	                      owned entries (default 30s; 0 disables sync,
//	                      the start round included)
//
// Cache entries move between nodes only through anti-entropy rounds: the
// round at start is a booting node's warm-up, and a reload runs one
// under the new view. One digest lists, and one fetch moves, at most
// 1024 entries (cluster.MaxDigestKeys) on every node.
//
// Example 3-node fleet member (edit the file, then kill -HUP the
// daemons; gossip carries the new epoch to any node not signalled):
//
//	pipeschedd -addr :8080 -advertise http://10.0.0.1:8080 \
//	    -peers-file /etc/pipesched/peers.txt
//
// Example self-healing join (no peers file on the new host):
//
//	pipeschedd -addr :8080 -advertise http://10.0.0.4:8080 \
//	    -join http://10.0.0.1:8080,http://10.0.0.2:8080
//
// Profiling is opt-in: -pprof ADDR exposes net/http/pprof on a separate
// listener (never on the service port), so production deployments can
// attach a profiler on localhost without exposing /debug to API clients:
//
//	pipeschedd -addr :8080 -pprof 127.0.0.1:6060
//
// Example:
//
//	pipeschedd -addr :8080 -cache-entries 4096 -request-timeout 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pipesched/internal/cli"
	"pipesched/internal/cluster"
	"pipesched/internal/service"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable streams and exit code, for tests.
// Exit codes follow the shared internal/cli contract: misuse exits 2
// with a usage pointer, runtime failures exit 1.
func realMain(args []string, out, errOut io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return cli.ExitCode("pipeschedd", run(ctx, args, out, errOut), errOut)
}

func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pipeschedd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr           = fs.String("addr", ":8080", "listen address")
		cacheEntries   = fs.Int("cache-entries", 0, "result cache bound in entries (0 = default 1024, negative = disable storage)")
		requestTimeout = fs.Duration("request-timeout", 0, "server-side deadline per request (0 = none; requests may still set timeout_ms)")
		drainTimeout   = fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown wait for in-flight requests")
		maxBody        = fs.Int64("max-body-bytes", 0, "request body limit in bytes (0 = default 8 MiB)")
		quiet          = fs.Bool("quiet", false, "suppress the serving log")
		pprofAddr      = fs.String("pprof", "", "expose net/http/pprof on this separate address (empty = disabled)")
		peers          = fs.String("peers", "", "comma-separated base URLs of the whole fleet, this node included (empty = single-node)")
		peersFile      = fs.String("peers-file", "", "file holding the fleet's base URLs (one per line, #-comments); reloaded on SIGHUP, enables dynamic membership")
		advertise      = fs.String("advertise", "", "this node's base URL as it appears in the peer list (required with -peers/-peers-file)")
		replicas       = fs.Int("replicas", 0, "replica owners per key; a miss forwards to the first available replica (0 = default 2)")
		peerTimeout    = fs.Duration("peer-timeout", cluster.DefaultForwardTimeout, "replica-forward round-trip bound; a slower peer is marked down and the solve runs locally")
		hedgeAfter     = fs.Duration("hedge-after", 0, "fire the same forward at the next replica when the first has not answered within this delay (0 = peer-timeout/4, negative = no hedging)")
		peerBackoff    = fs.Duration("peer-backoff", cluster.DefaultBackoff, "base down window after a peer failure; consecutive failures back off exponentially up to -peer-max-backoff")
		peerMaxBackoff = fs.Duration("peer-max-backoff", cluster.DefaultMaxBackoff, "cap on the exponential peer down window")
		join           = fs.String("join", "", "comma-separated seed URLs: bootstrap the member list from any reachable one, announce this node, and join the fleet (requires -advertise; excludes -peers/-peers-file)")
		gossipInterval = fs.Duration("gossip-interval", 10*time.Second, "membership gossip tick: pull one live peer's member list and merge (0 = disabled)")
		syncInterval   = fs.Duration("sync-interval", 30*time.Second, "replica anti-entropy round at start and every tick: pull peer cache digests and fetch missing owned entries (0 = disabled, start round included)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.WrapParse(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *drainTimeout < 0 || *requestTimeout < 0 {
		return cli.Usagef("timeouts must be non-negative")
	}
	if *peerTimeout <= 0 || *peerBackoff <= 0 || *peerMaxBackoff <= 0 {
		return cli.Usagef("peer timeouts must be positive")
	}
	if *replicas < 0 {
		return cli.Usagef("-replicas must be non-negative")
	}
	if *peers != "" && *peersFile != "" {
		return cli.Usagef("-peers and -peers-file are mutually exclusive")
	}
	if *join != "" && (*peers != "" || *peersFile != "") {
		return cli.Usagef("-join and -peers/-peers-file are mutually exclusive (a joining node learns the fleet from its seeds)")
	}
	if *gossipInterval < 0 || *syncInterval < 0 {
		return cli.Usagef("-gossip-interval and -sync-interval must be non-negative")
	}
	peerList := strings.Split(*peers, ",")
	if *peersFile != "" {
		data, err := os.ReadFile(*peersFile)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		peerList = cluster.ParsePeersFile(data)
	}
	var clusterCfg *service.ClusterConfig
	switch {
	case *join != "":
		if *advertise == "" {
			return cli.Usagef("-join requires -advertise")
		}
		m, err := bootstrapJoin(ctx, strings.Split(*join, ","), *advertise, *peerTimeout)
		if err != nil {
			return fmt.Errorf("join: %w", err)
		}
		topo, err := cluster.NewTopology(m.Peers, *advertise)
		if err != nil {
			return fmt.Errorf("join: %w", err)
		}
		clusterCfg = &service.ClusterConfig{
			Topology:       topo,
			Epoch:          m.Epoch,
			Replicas:       *replicas,
			ForwardTimeout: *peerTimeout,
			HedgeAfter:     *hedgeAfter,
			PeerBackoff:    *peerBackoff,
			MaxPeerBackoff: *peerMaxBackoff,
		}
	case *peers != "" || *peersFile != "":
		if *advertise == "" {
			return cli.Usagef("-peers/-peers-file requires -advertise")
		}
		topo, err := cluster.NewTopology(peerList, *advertise)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		clusterCfg = &service.ClusterConfig{
			Topology:       topo,
			Replicas:       *replicas,
			ForwardTimeout: *peerTimeout,
			HedgeAfter:     *hedgeAfter,
			PeerBackoff:    *peerBackoff,
			MaxPeerBackoff: *peerMaxBackoff,
		}
	case *advertise != "":
		return cli.Usagef("-advertise requires -peers, -peers-file or -join")
	}

	logger := log.New(out, "", log.LstdFlags)
	if *quiet {
		logger = log.New(io.Discard, "", 0)
	}
	var hup chan os.Signal
	if *peersFile != "" {
		// Registered before the listener exists: once "listening on" is
		// printed, an operator may send SIGHUP, and Go's default action
		// for an unhandled SIGHUP is to exit.
		hup = make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Printed unconditionally (and first) so wrappers can scrape the
	// resolved port when -addr ends in :0.
	fmt.Fprintf(out, "pipeschedd: listening on %s\n", ln.Addr())
	if *pprofAddr != "" {
		stopProf, err := servePprof(*pprofAddr, out)
		if err != nil {
			ln.Close()
			return err
		}
		defer stopProf()
	}
	srv := service.New(service.Options{
		CacheEntries:   *cacheEntries,
		RequestTimeout: *requestTimeout,
		DrainTimeout:   *drainTimeout,
		MaxBodyBytes:   *maxBody,
		Logger:         logger,
		Cluster:        clusterCfg,
	})
	if hup != nil {
		go watchPeersFile(ctx, srv, logger, hup, *peersFile, *advertise)
	}
	if clusterCfg != nil {
		if *join != "" {
			// Announce after the listener is up, so the peers that learn
			// about us can immediately exchange with us. Failures are
			// non-fatal: the gossip tick is the backstop.
			go func() {
				actx, cancel := context.WithTimeout(ctx, 30*time.Second)
				defer cancel()
				if err := srv.AnnounceSelf(actx); err != nil {
					logger.Printf("pipeschedd: join announce incomplete: %v", err)
					return
				}
				logger.Printf("pipeschedd: joined a fleet of %d peers", srv.Topology().Size())
			}()
		}
		go srv.RunSelfHealing(ctx, *gossipInterval, *syncInterval)
	}
	return srv.Serve(ctx, ln)
}

// bootstrapJoin resolves the initial membership from the seed list,
// retrying for a short window so "start the whole fleet at once" races
// do not kill a joining node whose seed is a second behind it.
func bootstrapJoin(ctx context.Context, seeds []string, advertise string, timeout time.Duration) (cluster.Members, error) {
	hc := &http.Client{Timeout: timeout}
	var (
		m   cluster.Members
		err error
	)
	for attempt := 0; attempt < 5; attempt++ {
		if m, err = cluster.BootstrapMembers(ctx, seeds, advertise, hc); err == nil {
			return m, nil
		}
		select {
		case <-ctx.Done():
			return cluster.Members{}, ctx.Err()
		case <-time.After(time.Second):
		}
	}
	return cluster.Members{}, err
}

// watchPeersFile is the dynamic-membership loop: on every SIGHUP it
// re-reads the peers file, swaps the new topology in atomically and
// pulls newly-owned keys in one anti-entropy round; gossip carries the
// higher epoch to peers that were not signalled. A reload that fails to
// parse or validate is logged and ignored — the serving view never
// regresses to a broken peer list.
func watchPeersFile(ctx context.Context, srv *service.Server, logger *log.Logger, hup <-chan os.Signal, path, advertise string) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			reloadPeersFile(ctx, srv, logger, path, advertise)
		}
	}
}

// reloadPeersFile performs one reload attempt: parse, swap, sync. An
// unchanged peer list swaps nothing and pulls nothing.
func reloadPeersFile(ctx context.Context, srv *service.Server, logger *log.Logger, path, advertise string) {
	data, err := os.ReadFile(path)
	if err != nil {
		logger.Printf("pipeschedd: peers reload: %v", err)
		return
	}
	topo, err := cluster.NewTopology(cluster.ParsePeersFile(data), advertise)
	if err != nil {
		logger.Printf("pipeschedd: peers reload rejected: %v", err)
		return
	}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	n, err := srv.ReloadTopology(rctx, topo)
	if err != nil {
		logger.Printf("pipeschedd: peers file reloaded (%d peers), sync incomplete (%d entries pulled): %v", topo.Size(), n, err)
		return
	}
	logger.Printf("pipeschedd: peers file reloaded (%d peers), sync pulled %d entries", topo.Size(), n)
}

// servePprof starts the opt-in profiling listener: an explicit mux
// carrying only the net/http/pprof handlers (never http.DefaultServeMux,
// so nothing else can leak onto the debug port). It returns a stop
// function that closes the listener when the daemon exits.
func servePprof(addr string, out io.Writer) (func(), error) {
	pln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	// Scrapable like the main line, for tooling and tests (-pprof :0).
	fmt.Fprintf(out, "pipeschedd: pprof listening on %s\n", pln.Addr())
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	psrv := &http.Server{Handler: mux}
	go psrv.Serve(pln) //nolint:errcheck // closed via stop below
	return func() { psrv.Close() }, nil
}
