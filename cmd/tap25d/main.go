// Command tap25d runs the TAP-2.5D placement flow on a built-in case study
// or a JSON system description and reports the resulting temperature,
// wirelength, placement and thermal map.
//
// Usage:
//
//	tap25d -system cpudram [-steps 1000] [-runs 5] [-grid 64] [-gas]
//	tap25d -json mysystem.json -out placement.json -ppm heat.ppm
//	tap25d -system multigpu -mode compact     # Compact-2.5D baseline only
//	tap25d -system cpudram -mode evaluate -placement p.json
//
// Long flows survive interruption: with -checkpoint-dir set, every annealing
// run snapshots its state periodically (-checkpoint-every) and on SIGINT /
// SIGTERM; rerunning with -resume continues from the snapshots and produces
// the same result as an uninterrupted run at the same seed. Snapshots are
// CRC-sealed and kept in two generations: if the newest is corrupt (a torn
// write at kill time), -resume falls back to the previous one unless
// -strict-resume forbids it. -no-recover disables the CG recovery ladder and
// -eval-failure-budget tolerates transient evaluation failures by skipping
// steps. -journal appends structured progress events as JSON Lines.
// -no-surrogate turns off the analytical-surrogate prescreen and makes the
// flow byte-identical to the exact-only annealer. See docs/OPERATIONS.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tap25d"
	"tap25d/internal/buildinfo"
	"tap25d/internal/obs"
	"tap25d/internal/placer"
)

// cliFlags collects every flag of the command. newFlagSet registers them on a
// fresh FlagSet so tests can golden-check the -h output without running main.
type cliFlags struct {
	systemName, jsonPath, mode, placement *string
	steps, runs, grid                     *int
	seed                                  *int64
	gas, noSur, exact                     *bool
	outPath, ppmPath                      *string
	quiet                                 *bool
	ckptDir                               *string
	ckptEvery                             *int
	resume                                *bool
	journal                               *string
	progEvery                             *int
	debugAddr, obsReport                  *string
	strictRes, noRecover                  *bool
	evalBudget                            *int
	tracePath                             *string
	version                               *bool
}

const usageHeader = `Usage: tap25d -system NAME | -json FILE [options]

Runs the TAP-2.5D thermally-aware placement flow (or the Compact-2.5D
baseline, or evaluation of an existing placement) and reports temperature,
wirelength, placement and thermal map.

The two-fidelity surrogate prescreen is ON by default; -no-surrogate restores
the exact-only flow. Checkpointing is OFF until -checkpoint-dir is set; with
it, runs snapshot every -checkpoint-every steps plus on SIGINT/SIGTERM, and
-resume continues them bit-identically. See docs/OPERATIONS.md.

Options:
`

// newFlagSet registers the command's flags and usage text on a fresh FlagSet.
func newFlagSet(name string) (*flag.FlagSet, *cliFlags) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	f := &cliFlags{
		systemName: fs.String("system", "", "built-in system: multigpu, cpudram, ascend910"),
		jsonPath:   fs.String("json", "", "path to a JSON system description (alternative to -system)"),
		mode:       fs.String("mode", "tap", "flow: tap (thermally-aware), compact (baseline), evaluate (score -placement)"),
		placement:  fs.String("placement", "", "JSON placement file for -mode evaluate"),
		steps:      fs.Int("steps", 1000, "SA steps per run (paper: 4500)"),
		runs:       fs.Int("runs", 1, "independent SA runs, best wins (paper: 5)"),
		grid:       fs.Int("grid", 64, "thermal grid resolution (paper: 64)"),
		seed:       fs.Int64("seed", 1, "random seed"),
		gas:        fs.Bool("gas", false, "use 2-stage gas-station links (Eqn. 9)"),
		noSur:      fs.Bool("no-surrogate", false, "disable the analytical-surrogate prescreen that is on by default (every SA step pays an exact thermal solve; byte-identical to the pre-surrogate flow)"),
		exact:      fs.Bool("exact", false, "route the final placement with the exact MILP"),
		outPath:    fs.String("out", "", "write the resulting placement as JSON"),
		ppmPath:    fs.String("ppm", "", "write the thermal map as a PPM image"),
		quiet:      fs.Bool("q", false, "suppress the ASCII thermal map"),
		ckptDir:    fs.String("checkpoint-dir", "", "directory for resumable run snapshots (off by default; enables checkpointing, -mode tap only)"),
		ckptEvery:  fs.Int("checkpoint-every", 0, "snapshot cadence in SA steps, used with -checkpoint-dir (0: snapshot only on interrupt)"),
		resume:     fs.Bool("resume", false, "resume interrupted runs from -checkpoint-dir snapshots (requires -checkpoint-dir)"),
		journal:    fs.String("journal", "", "append progress events to this JSONL file"),
		progEvery:  fs.Int("progress-every", 0, "emit a step event every N SA steps (0: lifecycle events only)"),
		debugAddr:  fs.String("debug-addr", "", "serve live metrics/pprof/run status on this address (e.g. localhost:6060)"),
		obsReport:  fs.String("obs-report", "", "write the end-of-run observability report as JSON to this file"),
		strictRes:  fs.Bool("strict-resume", false, "fail on a corrupt newest checkpoint instead of the default fallback to the previous generation"),
		noRecover:  fs.Bool("no-recover", false, "disable the thermal solver's CG recovery ladder that is on by default (non-convergence fails immediately)"),
		evalBudget: fs.Int("eval-failure-budget", 0, "skip up to N consecutive transiently-failed SA steps per run (0: fail fast)"),
		tracePath:  fs.String("trace", "", "write a span trace of the flow to this JSONL file; a CRC-sealed manifest lands beside it (see docs/OBSERVABILITY.md)"),
		version:    fs.Bool("version", false, "print the build version and exit"),
	}
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usageHeader)
		fs.PrintDefaults()
	}
	return fs, f
}

func main() {
	fs, f := newFlagSet("tap25d")
	fs.Parse(os.Args[1:])
	var (
		systemName, jsonPath, mode, placement = f.systemName, f.jsonPath, f.mode, f.placement
		steps, runs, grid, seed               = f.steps, f.runs, f.grid, f.seed
		gas, noSur, exact                     = f.gas, f.noSur, f.exact
		outPath, ppmPath, quiet               = f.outPath, f.ppmPath, f.quiet
		ckptDir, ckptEvery, resume            = f.ckptDir, f.ckptEvery, f.resume
		journal, progEvery                    = f.journal, f.progEvery
		debugAddr, obsReport                  = f.debugAddr, f.obsReport
		strictRes, noRecover, evalBudget      = f.strictRes, f.noRecover, f.evalBudget
		tracePath                             = f.tracePath
	)
	if *f.version {
		fmt.Println("tap25d", buildinfo.Version())
		return
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	sys, err := loadSystem(*systemName, *jsonPath)
	if err != nil {
		fatal(err)
	}
	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint-dir"))
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opt := tap25d.Options{
		ThermalGrid:       *grid,
		Steps:             *steps,
		Runs:              *runs,
		Seed:              *seed,
		GasStation:        *gas,
		Surrogate:         !*noSur,
		ExactRouting:      *exact,
		Context:           ctx,
		ProgressEvery:     *progEvery,
		DisableRecovery:   *noRecover,
		EvalFailureBudget: *evalBudget,
	}
	// Observability: -debug-addr, -obs-report and -trace all need a live
	// observer; the table on stderr comes for free once one exists.
	var observer *tap25d.Observer
	if *debugAddr != "" || *obsReport != "" || *tracePath != "" {
		observer = tap25d.NewObserver()
		opt.Observer = observer
	}
	if *debugAddr != "" {
		srv, err := tap25d.ServeDebug(*debugAddr, observer)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		log.Info("debug server up", "url", "http://"+srv.Addr(), "endpoints", "/metrics /run /debug/pprof/")
	}
	// -trace: mint a trace ID for this invocation, open the durable sink, and
	// thread the ID plus a root span through the flow's context so every span
	// down to the CG solves lands in the file under one trace.
	var traceSink *obs.TraceSink
	var rootSpan *obs.Span
	traceID := ""
	if *tracePath != "" {
		traceID = fmt.Sprintf("tr-cli-%x", time.Now().UnixNano())
		traceSink, err = obs.NewTraceSink(*tracePath)
		if err != nil {
			fatal(err)
		}
		observer.AttachTraceSink(traceID, traceSink)
		tctx := obs.ContextWithTrace(ctx, traceID)
		rootSpan = observer.StartSpanCtx(tctx, obs.PhaseJobExecute, sys.Name)
		opt.Context = obs.ContextWithSpan(tctx, rootSpan)
		log.Info("tracing flow", "trace", traceID, "file", *tracePath)
	}
	var sink *tap25d.JSONLSink
	if *journal != "" {
		f, err := os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = tap25d.NewJSONLSink(f)
		opt.Progress = sink.Emit
	}
	var store *tap25d.CheckpointStore
	if *ckptDir != "" {
		store = &tap25d.CheckpointStore{Dir: *ckptDir, Strict: *strictRes}
		store.Events = func(e tap25d.RunEvent) {
			log.Warn("newest checkpoint rejected; resuming from the previous generation",
				"run", e.Run, "step", e.Step, "error", e.Error, "trace", traceID)
			if sink != nil {
				sink.Emit(e)
			}
		}
		opt.CheckpointEvery = *ckptEvery
		opt.Checkpoint = store.Checkpoint
		if *resume {
			opt.Restore = store.Restore
		}
	}

	var res *tap25d.Result
	switch *mode {
	case "tap":
		res, err = tap25d.Place(sys, opt)
	case "compact":
		res, err = tap25d.PlaceCompact(sys, opt)
	case "evaluate":
		var p tap25d.Placement
		if err := readJSON(*placement, &p); err != nil {
			fatal(fmt.Errorf("reading -placement: %w", err))
		}
		res, err = tap25d.Evaluate(sys, p, opt)
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}
	if rootSpan != nil {
		rootSpan.End()
	}
	if traceSink != nil {
		observer.DetachTraceSink(traceID)
		m := traceSink.Manifest(traceID, "")
		if cerr := traceSink.Close(); cerr != nil {
			log.Warn("trace file write trouble", "trace", traceID, "error", cerr)
		}
		if serr := placer.WriteSealedFile(*tracePath+".manifest.json", "tap25d-trace", m); serr != nil {
			log.Warn("sealing trace manifest", "trace", traceID, "error", serr)
		} else {
			log.Info("trace written", "trace", traceID, "file", *tracePath, "spans", m.Spans)
		}
	}
	interrupted := err != nil && res != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !interrupted {
		fatal(err)
	}
	if interrupted {
		log.Warn("interrupted", "error", err, "trace", traceID)
		fmt.Println("reporting best solution found before the interruption:")
		if *ckptDir != "" {
			fmt.Printf("checkpoints saved under %s; rerun with -resume to continue\n", *ckptDir)
		}
	} else if store != nil {
		// Clean completion: periodic snapshots are spent, remove both
		// generations so a later -resume doesn't replay a finished
		// optimization.
		store.Clean(*runs)
	}

	fmt.Printf("system %s: peak %.2f C (feasible <= %d C: %v), wirelength %.0f mm\n",
		sys.Name, res.PeakC, tap25d.CriticalC, res.Feasible, res.WirelengthMM)
	if *mode == "tap" && !res.Interrupted {
		fmt.Printf("initial (Compact-2.5D): %.2f C, %.0f mm\n", res.InitialPeakC, res.InitialWirelength)
	}
	if s := res.Surrogate; s != nil {
		fmt.Printf("surrogate: %d prescreens, %d rejected without an exact solve (hit rate %.2f), %d audits, %d refits, drift RMS %.3f C\n",
			s.Prescreens, s.Rejects, s.HitRate, s.Audits, s.Refits, s.DriftRMSC)
	}
	for i, c := range res.Placement.Centers {
		rot := ""
		if res.Placement.Rotated[i] {
			rot = " (rotated)"
		}
		fmt.Printf("  %-12s at (%5.1f, %5.1f) mm%s\n", sys.Chiplets[i].Name, c.X, c.Y, rot)
	}
	if !*quiet {
		fmt.Println(tap25d.ThermalASCII(sys, res, 72))
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, res.Placement); err != nil {
			fatal(err)
		}
		fmt.Println("placement written to", *outPath)
	}
	if *ppmPath != "" {
		f, err := os.Create(*ppmPath)
		if err != nil {
			fatal(err)
		}
		if err := tap25d.WriteThermalPPM(f, res, 8); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("thermal map written to", *ppmPath)
	}
	if observer != nil {
		rep := observer.Report()
		rep.WriteTable(os.Stderr)
		if *obsReport != "" {
			if err := rep.WriteFile(*obsReport); err != nil {
				fatal(err)
			}
			fmt.Println("observability report written to", *obsReport)
		}
	}
}

func loadSystem(name, jsonPath string) (*tap25d.System, error) {
	switch {
	case name != "" && jsonPath != "":
		return nil, fmt.Errorf("use either -system or -json, not both")
	case name != "":
		return tap25d.BuiltinSystem(name)
	case jsonPath != "":
		f, err := os.Open(jsonPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return tap25d.LoadSystem(f)
	default:
		return nil, fmt.Errorf("specify -system (%v) or -json", tap25d.BuiltinSystemNames())
	}
}

func readJSON(path string, v any) error {
	if path == "" {
		return fmt.Errorf("no file given")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tap25d:", err)
	os.Exit(1)
}
