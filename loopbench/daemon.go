package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pipesched/internal/service"
)

// node is one running pipeschedd process.
type node struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives the process's exit status once
}

// startNode launches bin with args and waits for the daemon's first
// stdout line, "pipeschedd: listening on ADDR".
func startNode(bin string, args []string) (*node, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even when the
	// benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	n := &node{cmd: cmd, done: make(chan error, 1)}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			line <- sc.Text()
		}
		close(line)
		// Drain the rest so the daemon never blocks on a full pipe;
		// Wait below closes the pipe once the process is gone.
		_, _ = io.Copy(io.Discard, out)
		n.done <- cmd.Wait()
	}()
	select {
	case l, ok := <-line:
		const prefix = "pipeschedd: listening on "
		if !ok || !strings.HasPrefix(l, prefix) {
			n.kill()
			return nil, fmt.Errorf("%s did not report its address (got %q)", bin, l)
		}
		n.url = "http://" + strings.TrimPrefix(l, prefix)
	case <-time.After(30 * time.Second):
		n.kill()
		return nil, fmt.Errorf("%s did not start listening within 30s", bin)
	}
	return n, nil
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// stop asks the daemon to drain and waits for it to exit.
func (n *node) stop() error {
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-n.done:
		return err
	case <-time.After(20 * time.Second):
		n.kill()
		return errors.New("pipeschedd did not drain within 20s; killed")
	}
}

func (n *node) kill() {
	_ = n.cmd.Process.Kill()
	<-n.done
}

// daemons is the set of daemons one workload runs against.
type daemons struct {
	nodes []*node
}

func (c *daemons) stop() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.stop())
	}
	return errors.Join(errs...)
}

func (c *daemons) urls() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.url
	}
	return out
}

// launch starts size daemons: one on an ephemeral port, or a static
// fleet with default replication where every node lists all of them.
// Nodes start one after the other, as an operator's script would.
func launch(bin string, size int) (*daemons, error) {
	if size == 1 {
		n, err := startNode(bin, []string{"-addr", "127.0.0.1:0", "-quiet"})
		if err != nil {
			return nil, err
		}
		return &daemons{nodes: []*node{n}}, nil
	}
	ports, err := freePorts(size)
	if err != nil {
		return nil, err
	}
	urls := make([]string, size)
	for i, p := range ports {
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(p)
	}
	c := &daemons{}
	for _, u := range urls {
		n, err := startNode(bin, []string{
			"-addr", strings.TrimPrefix(u, "http://"),
			"-peers", strings.Join(urls, ","),
			"-advertise", u,
			"-quiet",
		})
		if err != nil {
			_ = c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them; the fleet's static peer list needs every address up front.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// scrape reads one node's /metrics.
func scrape(ctx context.Context, hc *http.Client, url string) (service.MetricsSnapshot, error) {
	var snap service.MetricsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return snap, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, fmt.Errorf("scrape %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("scrape %s: %w", url, err)
	}
	return snap, nil
}

func scrapeAll(ctx context.Context, hc *http.Client, c *daemons) ([]service.MetricsSnapshot, error) {
	out := make([]service.MetricsSnapshot, len(c.nodes))
	for i, n := range c.nodes {
		s, err := scrape(ctx, hc, n.url)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// awaitConverged polls every node's /metrics until none reports a peer
// down and all report the same membership hash. Right after boot the
// first nodes' warm-up finds their later peers refusing connections and
// backs off from them; traffic sent before that window closes is served
// by local fallback instead of the owner.
func awaitConverged(ctx context.Context, hc *http.Client, c *daemons) error {
	for {
		snaps, err := scrapeAll(ctx, hc, c)
		if err == nil && converged(snaps) {
			return nil
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = errors.New("fleet did not converge")
			}
			return fmt.Errorf("await convergence: %w", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func converged(snaps []service.MetricsSnapshot) bool {
	for _, s := range snaps {
		if s.Cluster == nil || s.Cluster.PeersDown != 0 || s.Cluster.MembershipHash != snaps[0].Cluster.MembershipHash {
			return false
		}
	}
	return true
}

// healthy checks that the node answers /healthz.
func healthy(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("healthz %s: %w", url, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// procStat reads a process's user+system CPU time and peak resident set
// from /proc.
func procStat(pid int) (cpu time.Duration, hwmKB int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	cpu = time.Duration(ut+st) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, l := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			hwmKB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return cpu, hwmKB, err
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// clusterStat sums procStat over the cluster's nodes.
func clusterStat(c *daemons) (cpu time.Duration, hwmKB int64, err error) {
	for _, n := range c.nodes {
		cp, h, err := procStat(n.pid())
		if err != nil {
			return 0, 0, err
		}
		cpu += cp
		hwmKB += h
	}
	return cpu, hwmKB, nil
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in ticks.
type cpuTimes struct {
	busy, steal int64 // non-idle time (steal included), and steal alone
}

func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, errors.New("malformed /proc/stat")
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuTimes{}, err
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}, nil
}
