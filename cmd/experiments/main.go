// Command experiments regenerates the paper's evaluation: the
// latency-versus-period trade-off curves of Figures 2–7 and the
// failure-threshold Table 1, for the four workload families E1–E4.
//
// Each figure is written as a gnuplot-style .dat file, a .csv file and an
// ASCII rendering (.txt, also printed to stdout). Tables are written as
// .csv and .txt.
//
// Examples:
//
//	experiments -all -out results              # everything, paper-scale (50 trials)
//	experiments -fig 2a -fig 6b -trials 10     # two figures, quick
//	experiments -table 1 -out results          # the four Table-1 blocks
//	experiments -list                          # show available experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pipesched/internal/cli"
	"pipesched/internal/experiments"
	"pipesched/internal/workload"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable streams and exit code, for tests.
// Exit codes follow the shared internal/cli contract: misuse (unknown
// flags, figure or table ids) exits 2 with a usage pointer, runtime
// failures exit 1.
func realMain(args []string, out, errOut io.Writer) int {
	return cli.ExitCode("experiments", run(args, out, errOut), errOut)
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var figs stringList
	var tables stringList
	var (
		all      = fs.Bool("all", false, "run every figure and table")
		trials   = fs.Int("trials", 0, "instances per point (0 = paper's 50)")
		points   = fs.Int("points", 0, "sweep grid size (0 = default 25)")
		outDir   = fs.String("out", "", "directory for .dat/.csv/.txt outputs (omit to print only)")
		workers  = fs.Int("workers", 0, "sweep elements run at once (0 = GOMAXPROCS)")
		list     = fs.Bool("list", false, "list available experiment ids and exit")
		ablation = fs.Bool("ablation", false, "run the H5/H6 vs X7/X8 latency-constrained ablation (E2, n=40, p=10 and p=100)")
	)
	fs.Var(&figs, "fig", "figure id (2a..7b); repeatable")
	fs.Var(&tables, "table", "table id (only 1 exists); repeatable")
	if err := fs.Parse(args); err != nil {
		return cli.WrapParse(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}

	if *list {
		fmt.Fprintln(out, "figures:")
		for _, spec := range experiments.PaperFigures() {
			fmt.Fprintf(out, "  %-7s %s\n", spec.ID, spec.Title)
		}
		fmt.Fprintln(out, "tables:")
		fmt.Fprintln(out, "  1       failure thresholds, all four families (Table 1)")
		return nil
	}

	var specs []experiments.CurveSpec
	if *all {
		specs = experiments.PaperFigures()
	} else {
		for _, id := range figs {
			spec, ok := experiments.FigureSpec(id)
			if !ok {
				return cli.Usagef("unknown figure %q (try -list)", id)
			}
			specs = append(specs, spec)
		}
	}
	runTables := *all
	for _, id := range tables {
		if id == "1" || strings.EqualFold(id, "table1") {
			runTables = true
			continue
		}
		return cli.Usagef("unknown table %q (only Table 1 exists; use -table 1)", id)
	}
	if len(specs) == 0 && !runTables && !*ablation {
		return cli.Usagef("nothing to run: give -all, -fig, -table or -ablation (see -list)")
	}

	for _, spec := range specs {
		if *trials > 0 {
			spec.Trials = *trials
		}
		if *points > 0 {
			spec.Points = *points
		}
		spec.Concurrency = *workers
		effPoints := spec.Points
		if effPoints <= 0 {
			effPoints = experiments.DefaultPoints
		}
		fmt.Fprintf(out, "running %s (%s; %d trials, %d points)...\n", spec.ID, spec.Title, spec.Trials, effPoints)
		curve := experiments.TradeoffCurve(spec)
		ascii := experiments.RenderASCII(curve)
		fmt.Fprintln(out, ascii)
		if *outDir != "" {
			if err := writeCurve(*outDir, curve, ascii); err != nil {
				return err
			}
		}
	}

	if *ablation {
		for _, procs := range []int{10, 100} {
			spec := experiments.AblationSpec(workload.E2, 40, procs, 0, 30000+int64(procs))
			if *trials > 0 {
				spec.Trials = *trials
			}
			if *points > 0 {
				spec.Points = *points
			}
			spec.Concurrency = *workers
			fmt.Fprintf(out, "running %s (%d trials)...\n", spec.ID, max(spec.Trials, 1))
			curve := experiments.AblationCurve(spec)
			ascii := experiments.RenderASCII(curve)
			fmt.Fprintln(out, ascii)
			fmt.Fprintln(out, "mean achieved-period ratio vs H5 (lower is better):")
			for hid, ratio := range experiments.AblationSummary(curve) {
				fmt.Fprintf(out, "  %s: %.4f\n", hid, ratio)
			}
			fmt.Fprintln(out)
			if *outDir != "" {
				if err := writeCurve(*outDir, curve, ascii); err != nil {
					return err
				}
			}
		}
	}

	if runTables {
		for _, tspec := range experiments.PaperTables() {
			if *trials > 0 {
				tspec.Trials = *trials
			}
			tspec.Concurrency = *workers
			fmt.Fprintf(out, "running table 1 block %s (%d trials)...\n", tspec.Family, tspec.Trials)
			tbl := experiments.FailureThresholds(tspec)
			ascii := experiments.RenderTableASCII(tbl)
			fmt.Fprintln(out, ascii)
			if *outDir != "" {
				if err := writeTable(*outDir, tbl, ascii); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeCurve(dir string, curve experiments.Curve, ascii string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dat, err := os.Create(filepath.Join(dir, curve.Spec.ID+".dat"))
	if err != nil {
		return err
	}
	defer dat.Close()
	if err := experiments.WriteDAT(dat, curve); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, curve.Spec.ID+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	if err := experiments.WriteCSV(csv, curve); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, curve.Spec.ID+".txt"), []byte(ascii), 0o644)
}

func writeTable(dir string, tbl experiments.ThresholdTable, ascii string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("table1_%s", tbl.Spec.Family)
	csv, err := os.Create(filepath.Join(dir, base+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	if err := experiments.WriteTableCSV(csv, tbl); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".txt"), []byte(ascii), 0o644)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
