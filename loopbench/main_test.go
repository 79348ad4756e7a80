package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"pipesched/internal/service"
)

// fakeDaemonEnv makes the test binary act as a pipeschedd whose solve
// answers carry a corrupted interval list.
const fakeDaemonEnv = "LOOPBENCH_FAKE_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(fakeDaemonEnv) == "1" {
		os.Exit(fakeDaemon(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fakeDaemon serves the real service, but moves the last interval of
// every successful solve answer one stage short.
func fakeDaemon(args []string) int {
	fs := flag.NewFlagSet("fake", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "")
	fs.Bool("quiet", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return 1
	}
	fmt.Printf("pipeschedd: listening on %s\n", ln.Addr())
	real := service.New(service.Options{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == pathSolve && rec.Code == http.StatusOK {
			var resp service.SolveResponse
			if json.Unmarshal(body, &resp) == nil && len(resp.Intervals) > 0 {
				resp.Intervals[len(resp.Intervals)-1].End--
				body, _ = json.Marshal(resp)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: h}
	go func() {
		<-ctx.Done()
		hs.Close()
	}()
	if err := hs.Serve(ln); err != http.ErrServerClosed {
		return 1
	}
	return 0
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestMetricDefsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, m := range b.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, command %s/%s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(b.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command prints %d", len(b.PerLayer), len(layerDefs))
	}
	for i, m := range b.PerLayer {
		if d := layerDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s, command %s/%s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command", w.Name)
		}
	}
}

// TestLayersFileCoversEveryLayerMetric checks that layers.json says, for
// every per-layer metric, which end-to-end metrics it should move on
// which workloads.
func TestLayersFileCoversEveryLayerMetric(t *testing.T) {
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics map[string]struct {
			Module string   `json:"module"`
			Source string   `json:"source"`
			Moves  []string `json:"moves"`
			On     []string `json:"on"`
			FlatOn []string `json:"flat_on"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, d := range endToEndDefs {
		e2e[d.name] = true
	}
	if len(doc.Metrics) != len(layerDefs) {
		t.Errorf("layers.json describes %d metrics, want %d", len(doc.Metrics), len(layerDefs))
	}
	for _, d := range layerDefs {
		m, ok := doc.Metrics[d.name]
		if !ok {
			t.Errorf("layers.json lacks %s", d.name)
			continue
		}
		if m.Module == "" || m.Source == "" {
			t.Errorf("%s: module and source are required", d.name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", d.name, e)
			}
		}
		for _, w := range append(append([]string(nil), m.On...), m.FlatOn...) {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s names unknown workload %q", d.name, w)
			}
		}
	}
}

// lastResult runs the command and decodes its last output line.
func lastResult(t *testing.T, args ...string) (int, resultLine, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return code, res, errOut.String()
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pipeschedd")
	cmd := exec.Command("go", "build", "-o", bin, "pipesched/cmd/pipeschedd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pipeschedd: %v\n%s", err, out)
	}
	return bin
}

// TestTinyRuns runs every workload briefly in both modes against the
// real daemon: every answer must check out and the printed metrics must
// be exactly the command's (and so BENCHMARK.json's) set.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("launches daemons")
	}
	bin := buildDaemon(t)
	spans := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				code, res, stderr := lastResult(t, "--workload", w.name, "--seed", "7", "--seconds", "0.3",
					"--trace", trace, "--daemon", bin, "--spans", spans)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, stderr)
				}
				defs := endToEndDefs
				if trace == "1" {
					defs = layerDefs
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

// TestCorruptedIntervalsFail runs against a daemon whose solve answers
// carry a corrupted interval list: the run must count failures, report
// itself incorrect and exit non-zero.
func TestCorruptedIntervalsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("launches daemons")
	}
	t.Setenv(fakeDaemonEnv, "1")
	code, res, stderr := lastResult(t, "--workload", "solve-cold", "--seed", "3", "--seconds", "0.3",
		"--daemon", os.Args[0], "--spans", t.TempDir())
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("exit %d, result correct=%v failed=%d; want a failing run", code, res.Correct, res.Failed)
	}
	if !strings.Contains(stderr, "invalid mapping") {
		t.Errorf("stderr does not name the invalid mapping:\n%s", stderr)
	}
}

func TestQuantileAndWindows(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(s, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(s, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := countAbove(s, 8); got != 2 {
		t.Errorf("countAbove(8) = %d, want 2", got)
	}
	// Five windows of 1000 answers; one window stalls, the median
	// window p99 does not move.
	answers := make([]answer, 5000)
	for i := range answers {
		answers[i].done = 1_000_000 // 1 ms
		if i >= 1000 && i < 2000 && i%10 == 0 {
			answers[i].done = 50_000_000
		}
	}
	if got := windowedQuantile(answers, 0.99); got != 1 {
		t.Errorf("windowed p99 = %v ms, want 1", got)
	}
}
