// Command experiments regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md for the E1-E13 index and EXPERIMENTS.md for the
// recorded paper-vs-measured values).
//
// Usage:
//
//	experiments                 # all experiments, reduced fidelity
//	experiments -e E3           # one experiment
//	experiments -full           # paper-fidelity settings (hours)
//	experiments -grid 48 -steps 800 -runs 3   # custom fidelity
//
// Long campaigns survive interruption: with -checkpoint-dir set, every
// annealing run snapshots its state periodically (-checkpoint-every) and on
// SIGINT/SIGTERM, and a later invocation with -resume picks up where the
// interrupted flow stopped. Snapshots are CRC-sealed and kept in two
// generations; -resume falls back to the previous generation when the newest
// is corrupt unless -strict-resume forbids it. -no-recover disables the CG
// recovery ladder and -eval-failure-budget tolerates transient evaluation
// failures. -journal appends structured progress events as JSON Lines.
// -no-surrogate turns off the analytical-surrogate prescreen (byte-identical
// to the exact-only flows); -bench-out regenerates the BENCH_E1.json
// surrogate-vs-exact micro-benchmark instead of the sweep. See
// docs/OPERATIONS.md for the full runbook.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"tap25d"
	"tap25d/internal/buildinfo"
	"tap25d/internal/experiments"
)

// cliFlags collects every flag of the command. newFlagSet registers them on a
// fresh FlagSet so tests can golden-check the -h output without running main.
type cliFlags struct {
	ids                  *string
	full                 *bool
	grid, steps, runs    *int
	seed                 *int64
	ckptDir              *string
	ckptEvery            *int
	resume               *bool
	journal              *string
	progEvery            *int
	debugAddr, obsReport *string
	strictRes, noRecover *bool
	evalBudget           *int
	noSur                *bool
	benchOut             *string
	solverBenchOut       *string
	solverGrids          *string
	version              *bool
}

const usageHeader = `Usage: experiments [options]

Regenerates the tables and figures of the paper's evaluation (E1-E13; see
DESIGN.md for the index). With no options, runs every experiment at reduced
fidelity (32x32 grid, 300 steps, 2 runs, seed 1); -full switches to the
paper's settings. -grid/-steps/-runs/-seed override either preset
individually (0 keeps the preset's value).

The two-fidelity surrogate prescreen is ON by default; -no-surrogate restores
the exact-only flows. Checkpointing is OFF until -checkpoint-dir is set; with
it, runs snapshot every -checkpoint-every steps plus on SIGINT/SIGTERM, and
-resume continues the campaign bit-identically. See docs/OPERATIONS.md.

Options:
`

// newFlagSet registers the command's flags and usage text on a fresh FlagSet.
func newFlagSet(name string) (*flag.FlagSet, *cliFlags) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	f := &cliFlags{
		ids:            fs.String("e", "", "comma-separated experiment IDs (default: all of E1-E13)"),
		full:           fs.Bool("full", false, "paper-fidelity settings (64x64 grid, 4500 steps, 5 runs)"),
		grid:           fs.Int("grid", 0, "override the preset's thermal grid resolution (0: keep preset)"),
		steps:          fs.Int("steps", 0, "override the preset's SA steps (0: keep preset)"),
		runs:           fs.Int("runs", 0, "override the preset's SA run count (0: keep preset)"),
		seed:           fs.Int64("seed", 0, "override the preset's random seed (0: keep preset)"),
		ckptDir:        fs.String("checkpoint-dir", "", "directory for resumable run snapshots (off by default; enables checkpointing)"),
		ckptEvery:      fs.Int("checkpoint-every", 0, "snapshot cadence in SA steps, used with -checkpoint-dir (0: snapshot only on interrupt)"),
		resume:         fs.Bool("resume", false, "resume interrupted runs from -checkpoint-dir snapshots (requires -checkpoint-dir)"),
		journal:        fs.String("journal", "", "append progress events to this JSONL file"),
		progEvery:      fs.Int("progress-every", 0, "emit a step event every N SA steps (0: lifecycle events only)"),
		debugAddr:      fs.String("debug-addr", "", "serve live metrics/pprof/run status on this address (e.g. localhost:6060)"),
		obsReport:      fs.String("obs-report", "", "write the end-of-campaign observability report as JSON to this file"),
		strictRes:      fs.Bool("strict-resume", false, "fail on a corrupt newest checkpoint instead of the default fallback to the previous generation"),
		noRecover:      fs.Bool("no-recover", false, "disable the thermal solver's CG recovery ladder that is on by default (non-convergence fails immediately)"),
		evalBudget:     fs.Int("eval-failure-budget", 0, "skip up to N consecutive transiently-failed SA steps per run (0: fail fast)"),
		noSur:          fs.Bool("no-surrogate", false, "disable the analytical-surrogate prescreen that is on by default (every SA step pays an exact thermal solve; byte-identical to the pre-surrogate flow)"),
		benchOut:       fs.String("bench-out", "", "run the surrogate-vs-exact E1 micro-benchmark and write its BENCH_*.json entries to this file (skips the experiment sweep)"),
		solverBenchOut: fs.String("solver-bench-out", "", "run the CG preconditioner-scaling benchmark and write its BENCH_*.json entries to this file (skips the experiment sweep)"),
		solverGrids:    fs.String("solver-grids", "64,128,256", "comma-separated ascending grid sizes for -solver-bench-out"),
		version:        fs.Bool("version", false, "print the build version and exit"),
	}
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usageHeader)
		fs.PrintDefaults()
	}
	return fs, f
}

func main() {
	fs, f := newFlagSet("experiments")
	fs.Parse(os.Args[1:])
	var (
		ids, full                        = f.ids, f.full
		grid, steps, runs, seed          = f.grid, f.steps, f.runs, f.seed
		ckptDir, ckptEvery, resume       = f.ckptDir, f.ckptEvery, f.resume
		journal, progEvery               = f.journal, f.progEvery
		debugAddr, obsReport             = f.debugAddr, f.obsReport
		strictRes, noRecover, evalBudget = f.strictRes, f.noRecover, f.evalBudget
		noSur, benchOut                  = f.noSur, f.benchOut
	)
	if *f.version {
		fmt.Println("experiments", buildinfo.Version())
		return
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	cfg := experiments.Reduced()
	if *full {
		cfg = experiments.Full()
	}
	if *grid != 0 {
		cfg.ThermalGrid = *grid
	}
	if *steps != 0 {
		cfg.Steps = *steps
	}
	if *runs != 0 {
		cfg.Runs = *runs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Surrogate = !*noSur
	if *benchOut != "" {
		runBench(cfg, *benchOut)
		return
	}
	if *f.solverBenchOut != "" {
		runSolverBench(*f.solverGrids, *f.solverBenchOut)
		return
	}
	if *resume && *ckptDir == "" {
		log.Error("-resume requires -checkpoint-dir")
		os.Exit(2)
	}

	// First SIGINT cancels cooperatively (runs checkpoint and unwind);
	// a second one falls back to the default handler and kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	orch := experiments.Orchestration{
		Context:           ctx,
		CheckpointDir:     *ckptDir,
		CheckpointEvery:   *ckptEvery,
		Resume:            *resume,
		ProgressEvery:     *progEvery,
		Strict:            *strictRes,
		DisableRecovery:   *noRecover,
		EvalFailureBudget: *evalBudget,
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Error("creating checkpoint dir", "error", err)
			os.Exit(1)
		}
	}

	var observer *tap25d.Observer
	if *debugAddr != "" || *obsReport != "" {
		observer = tap25d.NewObserver()
		orch.Obs = observer
	}
	if *debugAddr != "" {
		srv, err := tap25d.ServeDebug(*debugAddr, observer)
		if err != nil {
			log.Error("debug server failed", "error", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Info("debug server up", "url", "http://"+srv.Addr(), "endpoints", "/metrics /run /debug/pprof/")
	}

	var sink *tap25d.JSONLSink
	if *journal != "" {
		f, err := os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Error("opening journal", "error", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = tap25d.NewJSONLSink(f)
	}
	tracker := &bestTracker{best: map[int]tap25d.RunEvent{}}
	orch.Progress = func(e tap25d.RunEvent) {
		switch e.Kind {
		case tap25d.EventResumeFallback:
			log.Warn("newest checkpoint rejected; resuming from the previous generation",
				"run", e.Run, "step", e.Step, "error", e.Error)
		case tap25d.EventAnomaly:
			log.Warn("convergence anomaly", "run", e.Run, "step", e.Step,
				"kind", e.Anomaly, "detail", e.Error)
		}
		tracker.observe(e)
		if sink != nil {
			sink.Emit(e)
		}
	}

	list := experiments.IDs()
	if *ids != "" {
		list = strings.Split(*ids, ",")
	}
	fmt.Printf("config: grid=%d steps=%d runs=%d compact=%d seed=%d\n\n",
		cfg.ThermalGrid, cfg.Steps, cfg.Runs, cfg.CompactSteps, cfg.Seed)
	failed := false
	interrupted := false
	for _, id := range list {
		id = strings.TrimSpace(id)
		rep, err := experiments.RunOrchestrated(id, cfg, orch)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				log.Warn("interrupted", "experiment", id, "error", err)
				interrupted = true
				break
			}
			log.Error("experiment failed", "experiment", id, "error", err)
			failed = true
			continue
		}
		rep.Format(os.Stdout)
		fmt.Println()
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			log.Error("journal write failed", "error", err)
			failed = true
		}
	}
	if observer != nil {
		rep := observer.Report()
		rep.WriteTable(os.Stderr)
		if *obsReport != "" {
			if err := rep.WriteFile(*obsReport); err != nil {
				log.Error("observability report failed", "error", err)
				failed = true
			} else {
				fmt.Println("observability report written to", *obsReport)
			}
		}
	}
	if interrupted {
		tracker.report(os.Stdout)
		if *ckptDir != "" {
			fmt.Printf("checkpoints saved under %s; rerun with -resume to continue\n", *ckptDir)
		}
		// Interruption is an orderly, resumable stop, not a failure.
		os.Exit(0)
	}
	if failed {
		os.Exit(1)
	}
}

// runBench regenerates the BENCH_E1.json artifact: the surrogate-vs-exact
// micro-benchmark on the multi-GPU case study at the configured fidelity.
func runBench(cfg experiments.Config, path string) {
	rep, entries, err := experiments.BenchmarkSurrogate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: bench:", err)
		os.Exit(1)
	}
	rep.Format(os.Stdout)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: bench:", err)
		os.Exit(1)
	}
	if err := experiments.WriteBenchEntries(f, entries); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "experiments: bench:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: bench:", err)
		os.Exit(1)
	}
	fmt.Println("benchmark entries written to", path)
}

// runSolverBench regenerates the BENCH_SOLVER.json artifact: the CG
// preconditioners (jacobi/mg) across the given grid sizes (see
// internal/experiments BenchmarkSolverScaling for the measurement protocol).
func runSolverBench(gridsCSV, path string) {
	var grids []int
	for _, s := range strings.Split(gridsCSV, ",") {
		g, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: solver bench: bad -solver-grids:", err)
			os.Exit(2)
		}
		grids = append(grids, g)
	}
	rep, entries, err := experiments.BenchmarkSolverScaling(grids)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: solver bench:", err)
		os.Exit(1)
	}
	rep.Format(os.Stdout)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: solver bench:", err)
		os.Exit(1)
	}
	if err := experiments.WriteBenchEntries(f, entries); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "experiments: solver bench:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: solver bench:", err)
		os.Exit(1)
	}
	fmt.Println("solver benchmark entries written to", path)
}

// bestTracker keeps the latest event per run index of the flow currently in
// flight; events carry the run's best-so-far metrics, so on interruption the
// tracker can report what the search had already found.
type bestTracker struct {
	mu   sync.Mutex
	best map[int]tap25d.RunEvent
}

func (t *bestTracker) observe(e tap25d.RunEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Kind == tap25d.EventFinal {
		// A finished run's flow may be followed by another flow reusing the
		// same run indices; start that flow's bookkeeping fresh.
		delete(t.best, e.Run)
		return
	}
	t.best[e.Run] = e
}

func (t *bestTracker) report(w *os.File) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.best) == 0 {
		return
	}
	runs := make([]int, 0, len(t.best))
	for r := range t.best {
		runs = append(runs, r)
	}
	sort.Ints(runs)
	fmt.Fprintln(w, "best-so-far at interruption:")
	for _, r := range runs {
		e := t.best[r]
		fmt.Fprintf(w, "  run %d: step %d/%d, best %.2f C / %.0f mm\n",
			r, e.Step, e.Steps, e.BestTempC, e.BestWirelengthMM)
	}
}
