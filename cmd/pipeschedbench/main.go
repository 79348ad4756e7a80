// Command pipeschedbench is the fleet load generator: it drives a
// deterministic, Zipf-skewed stream of solve requests at one or more
// pipeschedd daemons and reports achieved QPS, the X-Cache hit-tier
// breakdown (hit / miss / collapsed / remote-hit / remote-miss /
// hedged-hit / fallback) and latency percentiles.
//
// The instance universe (-keys seeded instances) and the key sequence
// (seeded Zipf skew, round-robin target choice) are fully reproducible
// from -seed, so two runs against different fleets replay byte-identical
// request streams — which is exactly what -verify exploits: every
// response is replayed against a reference daemon and byte-compared,
// the fleet-vs-single-node bit-identity check that
// scripts/cluster_e2e.sh runs in every phase.
//
// The stream is closed-loop: each of the -workers sends its next
// request as soon as the last one completes, for -requests requests or
// for -duration.
//
// Examples:
//
//	# closed-loop, 3-node fleet, 30s, heavy skew
//	pipeschedbench -targets http://:8080,http://:8081,http://:8082 \
//	    -duration 30s -keys 4096 -zipf-s 1.3
//
//	# fixed 10k-request smoke, bit-identity against a reference node
//	pipeschedbench -targets http://:8080,http://:8081 -requests 10000 \
//	    -seed 7 -verify http://:9090
//
// Exit codes follow the shared contract: 0 on a clean run, 1 when the
// run saw client-visible errors or verify mismatches (the counts are in
// the report), 2 on command-line misuse.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pipesched/internal/cli"
	"pipesched/internal/loadgen"
	"pipesched/internal/workload"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable streams and exit code, for tests.
func realMain(args []string, out, errOut io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return cli.ExitCode("pipeschedbench", run(ctx, args, out, errOut), errOut)
}

// errRunDirty marks a completed run whose report shows client-visible
// errors or verify mismatches: exit 1, but only after the report prints.
type errRunDirty struct{ errors, mismatches int }

func (e *errRunDirty) Error() string {
	return fmt.Sprintf("run saw %d errors and %d verify mismatches", e.errors, e.mismatches)
}

func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pipeschedbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		targets   = fs.String("targets", "", "comma-separated pipeschedd base URLs (required)")
		verify    = fs.String("verify", "", "reference base URL; byte-compare every response against it")
		duration  = fs.Duration("duration", 10*time.Second, "run length when -requests is 0")
		requests  = fs.Int("requests", 0, "exact request count (0 = run for -duration); fixes the key sequence")
		workers   = fs.Int("workers", 16, "concurrent request loops")
		keys      = fs.Int("keys", 256, "distinct instances in the key universe")
		zipfS     = fs.Float64("zipf-s", 1.1, "Zipf skew exponent (> 1; larger = hotter head)")
		zipfV     = fs.Float64("zipf-v", 1, "Zipf value offset (>= 1)")
		seed      = fs.Int64("seed", 1, "seed for the instance universe and key sequence")
		family    = fs.String("family", "E1", "workload family E1..E4")
		stages    = fs.Int("stages", 8, "stages per generated instance")
		procs     = fs.Int("procs", 8, "processors per generated instance")
		objective = fs.String("objective", "", "solve objective (default min-latency)")
		bound     = fs.Float64("bound", 1e6, "solve bound sent with every request")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request timeout")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return cli.WrapParse(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *targets == "" {
		return cli.Usagef("-targets is required")
	}
	fam, err := parseFamily(*family)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	if *zipfS <= 1 || *zipfV < 1 {
		return cli.Usagef("-zipf-s must be > 1 and -zipf-v >= 1")
	}
	if *requests < 0 || *keys <= 0 || *workers <= 0 {
		return cli.Usagef("-requests, -keys and -workers must be positive")
	}

	cfg := loadgen.Config{
		Targets:      splitTargets(*targets),
		VerifyTarget: strings.TrimRight(*verify, "/"),
		Workers:      *workers,
		Requests:     *requests,
		Duration:     *duration,
		Keys:         *keys,
		ZipfS:        *zipfS,
		ZipfV:        *zipfV,
		Seed:         *seed,
		Family:       fam,
		Stages:       *stages,
		Processors:   *procs,
		Objective:    *objective,
		Bound:        *bound,
		Timeout:      *timeout,
	}

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(out, rep)
	}
	if rep.Errors > 0 || rep.Mismatches > 0 {
		return &errRunDirty{errors: rep.Errors, mismatches: rep.Mismatches}
	}
	return nil
}

func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, strings.TrimRight(t, "/"))
		}
	}
	return out
}

func parseFamily(s string) (workload.Family, error) {
	for _, f := range workload.Families() {
		if strings.EqualFold(f.String(), s) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown family %q (want E1..E4)", s)
}

func printReport(out io.Writer, rep *loadgen.Report) {
	fmt.Fprintf(out, "targets   %d\n", rep.Targets)
	fmt.Fprintf(out, "sent      %d in %.2fs (%.0f req/s)\n", rep.Sent, rep.ElapsedSeconds, rep.QPS)
	fmt.Fprintf(out, "errors    %d    mismatches %d\n", rep.Errors, rep.Mismatches)
	fmt.Fprintf(out, "tiers     %s\n", countMap(rep.Tiers))
	fmt.Fprintf(out, "statuses  %s\n", countMap(rep.Statuses))
	l := rep.Latency
	fmt.Fprintf(out, "latency   mean %.3fms  p50 %.3fms  p90 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		l.MeanMS, l.P50MS, l.P90MS, l.P95MS, l.P99MS, l.MaxMS)
}

// countMap renders a count map with deterministic key order.
func countMap(m map[string]int) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
