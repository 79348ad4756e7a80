// Command pipesched solves one bi-criteria pipeline mapping problem and
// prints the resulting mapping and metrics.
//
// The instance comes either from a JSON file (-instance, format
// {"pipeline": {"works": [...], "deltas": [...]},
// "platform": {"speeds": [...], "bandwidth": b}}) or from the paper's
// random generators (-family E1..E4, -stages, -procs, -seed).
//
// Exactly one constraint must be given: -period P (minimise latency under
// a period bound, heuristics H1–H4) or -latency L (minimise period under a
// latency bound, heuristics H5–H6). -heuristic selects one heuristic by
// identifier, "best" (default) runs all applicable ones and keeps the best
// result, "all" prints every result, "portfolio" races all applicable
// heuristics plus the exact DP concurrently and reports the winner. The DP
// joins wherever exact.Eligible admits the platform: its compressed state
// space, ∏ (class size + 1) over the speed classes, is at most 2^16, so
// any 16 processors qualify and larger platforms do when speeds repeat.
//
// Examples:
//
//	pipesched -family E1 -stages 10 -procs 10 -seed 7 -period 5
//	pipesched -instance app.json -latency 30 -heuristic H6 -simulate 200
//	pipesched -family E3 -stages 5 -procs 8 -period 120 -exact -pareto
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pipesched"
	"pipesched/internal/cli"
	"pipesched/internal/workload"
)

// portfolioName labels a portfolio run with its winning solver.
func portfolioName(out pipesched.PortfolioOutcome, err error) string {
	if err != nil || out.Solver == "" {
		return "portfolio"
	}
	return "portfolio→" + out.Solver
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable streams and exit code, for tests.
// Exit codes follow the shared internal/cli contract: misuse (unknown
// flags, -heuristic or -family values, missing constraints) exits 2 with
// a usage pointer, runtime failures exit 1.
func realMain(args []string, out, errOut io.Writer) int {
	return cli.ExitCode("pipesched", run(args, out, errOut), errOut)
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pipesched", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		instPath  = fs.String("instance", "", "JSON instance file (overrides the generator flags)")
		family    = fs.String("family", "E1", "workload family E1..E4 for generated instances")
		stages    = fs.Int("stages", 10, "generated pipeline stages")
		procs     = fs.Int("procs", 10, "generated platform processors")
		seed      = fs.Int64("seed", 1, "generator seed")
		period    = fs.Float64("period", 0, "period bound (minimise latency); exclusive with -latency")
		latency   = fs.Float64("latency", 0, "latency bound (minimise period); exclusive with -period")
		heuristic = fs.String("heuristic", "best", "H1..H6, \"best\", \"all\" or \"portfolio\" (race heuristics + exact DP)")
		simulate  = fs.Int("simulate", 0, "additionally simulate N data sets through the chosen mapping")
		gantt     = fs.Int("gantt", 0, "print an ASCII Gantt chart of the first N data sets")
		exactFlag = fs.Bool("exact", false, "also compute the exact optimum (compressed DP state space ≤ 2^16)")
		pareto    = fs.Bool("pareto", false, "also print the exact Pareto front (compressed DP state space ≤ 2^16)")
		sweep     = fs.Bool("sweep", false, "also print the heuristic trade-off frontier (any platform size)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.WrapParse(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if (*period > 0) == (*latency > 0) {
		return cli.Usagef("give exactly one of -period or -latency")
	}

	in, err := loadInstance(*instPath, *family, *stages, *procs, *seed)
	if err != nil {
		return err
	}
	ev := in.Evaluator()
	fmt.Fprintf(out, "pipeline: %v\n", in.App)
	fmt.Fprintf(out, "platform: %v\n", in.Plat)
	_, optLat := pipesched.OptimalLatency(ev)
	fmt.Fprintf(out, "optimal latency (Lemma 1): %.4g   period lower bound: %.4g\n\n",
		optLat, pipesched.PeriodLowerBound(ev))

	var chosen *pipesched.Result
	report := func(name string, res pipesched.Result, err error) {
		if err != nil {
			fmt.Fprintf(out, "%-16s FAILED: %v\n", name, err)
			return
		}
		fmt.Fprintf(out, "%-16s period=%-10.4g latency=%-10.4g %v\n",
			name, res.Metrics.Period, res.Metrics.Latency, res.Mapping)
		if chosen == nil {
			chosen = &res
		}
	}

	switch {
	case *period > 0:
		hs := pipesched.PeriodHeuristics()
		switch strings.ToLower(*heuristic) {
		case "best":
			res, err := pipesched.BestUnderPeriod(ev, *period)
			report("best(H1..H4)", res, err)
		case "portfolio":
			out, err := pipesched.PortfolioUnderPeriod(context.Background(), ev, *period)
			report(portfolioName(out, err), out.Result, err)
		case "all":
			for _, h := range hs {
				res, err := h.MinimizeLatency(ev, *period)
				report(h.ID()+" "+h.Name(), res, err)
			}
		default:
			h, err := findPeriodHeuristic(*heuristic)
			if err != nil {
				return err
			}
			res, err2 := h.MinimizeLatency(ev, *period)
			report(h.ID()+" "+h.Name(), res, err2)
		}
	default: // latency bound
		hs := pipesched.LatencyHeuristics()
		switch strings.ToLower(*heuristic) {
		case "best":
			res, err := pipesched.BestUnderLatency(ev, *latency)
			report("best(H5..H6)", res, err)
		case "portfolio":
			out, err := pipesched.PortfolioUnderLatency(context.Background(), ev, *latency)
			report(portfolioName(out, err), out.Result, err)
		case "all":
			for _, h := range hs {
				res, err := h.MinimizePeriod(ev, *latency)
				report(h.ID()+" "+h.Name(), res, err)
			}
		default:
			h, err := findLatencyHeuristic(*heuristic)
			if err != nil {
				return err
			}
			res, err2 := h.MinimizePeriod(ev, *latency)
			report(h.ID()+" "+h.Name(), res, err2)
		}
	}

	if *exactFlag {
		opt, err := pipesched.ExactMinPeriod(ev)
		if err != nil {
			fmt.Fprintf(out, "\nexact min period: unavailable (%v)\n", err)
		} else {
			fmt.Fprintf(out, "\nexact min period: %.4g (latency %.4g) %v\n",
				opt.Metrics.Period, opt.Metrics.Latency, opt.Mapping)
		}
	}
	if *pareto {
		front, err := pipesched.ExactParetoFront(ev)
		if err != nil {
			fmt.Fprintf(out, "\npareto front: unavailable (%v)\n", err)
		} else {
			fmt.Fprintf(out, "\nexact Pareto front (%d points):\n", len(front))
			for _, pt := range front {
				fmt.Fprintf(out, "  period=%-10.4g latency=%-10.4g %v\n",
					pt.Metrics.Period, pt.Metrics.Latency, pt.Mapping)
			}
		}
	}
	if *sweep {
		front := pipesched.HeuristicParetoSweep(ev, 15)
		fmt.Fprintf(out, "\nheuristic trade-off frontier (%d points):\n%s", len(front), pipesched.FormatTradeoff(front))
	}
	if *gantt > 0 && chosen != nil {
		tr, err := pipesched.SimulateTraced(ev, chosen.Mapping, pipesched.SimulationOptions{DataSets: *gantt})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nGantt chart of %d data sets:\n%s", *gantt, pipesched.Gantt(tr, 100, 0))
	}
	if *simulate > 0 && chosen != nil {
		rep, err := pipesched.Simulate(ev, chosen.Mapping, pipesched.SimulationOptions{DataSets: *simulate})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nsimulation of %d data sets:\n", *simulate)
		fmt.Fprintf(out, "  steady-state period: %.6g (analytic %.6g)\n", rep.SteadyStatePeriod, chosen.Metrics.Period)
		fmt.Fprintf(out, "  max latency:         %.6g (analytic %.6g)\n", rep.MaxLatency, chosen.Metrics.Latency)
		fmt.Fprintf(out, "  makespan:            %.6g\n", rep.Makespan)
		for j, u := range rep.Utilization {
			fmt.Fprintf(out, "  interval %d utilization: %.1f%%\n", j+1, 100*u)
		}
	}
	return nil
}

func loadInstance(path, family string, stages, procs int, seed int64) (workload.Instance, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return workload.Instance{}, err
		}
		var in workload.Instance
		if err := json.Unmarshal(data, &in); err != nil {
			return workload.Instance{}, fmt.Errorf("parsing %s: %w", path, err)
		}
		return in, nil
	}
	fam, err := parseFamily(family)
	if err != nil {
		return workload.Instance{}, err
	}
	return workload.Generate(workload.Config{Family: fam, Stages: stages, Processors: procs, Seed: seed}), nil
}

func parseFamily(s string) (workload.Family, error) {
	for _, f := range workload.Families() {
		if strings.EqualFold(f.String(), s) {
			return f, nil
		}
	}
	return 0, cli.Usagef("unknown family %q (want E1..E4)", s)
}

func findPeriodHeuristic(id string) (pipesched.PeriodConstrained, error) {
	for _, h := range pipesched.PeriodHeuristics() {
		if strings.EqualFold(h.ID(), id) {
			return h, nil
		}
	}
	return nil, cli.Usagef("unknown period heuristic %q (want H1..H4, best, all, portfolio)", id)
}

func findLatencyHeuristic(id string) (pipesched.LatencyConstrained, error) {
	for _, h := range pipesched.LatencyHeuristics() {
		if strings.EqualFold(h.ID(), id) {
			return h, nil
		}
	}
	return nil, cli.Usagef("unknown latency heuristic %q (want H5, H6, best, all, portfolio)", id)
}
