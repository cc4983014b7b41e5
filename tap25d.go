// Package tap25d is an open-source reproduction, in pure Go, of TAP-2.5D:
// the thermally-aware chiplet placement methodology for heterogeneous 2.5D
// systems of Ma et al. (DATE 2021).
//
// Given a system description — chiplets with dimensions and powers, a logical
// inter-chiplet network with per-channel wire counts, and an interposer —
// the library searches for a placement that jointly minimizes the peak
// operating temperature and the total inter-chiplet wirelength, by
// strategically inserting spacing between chiplets (Place). It also provides
// the Compact-2.5D baseline placer (PlaceCompact), evaluation of arbitrary
// placements (Evaluate), TDP envelope analysis (TDPEnvelope), the
// link-latency performance study (LinkLatencyStudy), and rendering of
// thermal maps (ThermalASCII, WriteThermalPPM).
//
// The three case studies of the paper are available via BuiltinSystem:
// "multigpu", "cpudram" and "ascend910".
package tap25d

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"tap25d/internal/btree"
	"tap25d/internal/chiplet"
	"tap25d/internal/faultinject"
	"tap25d/internal/geom"
	"tap25d/internal/interposercost"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
	"tap25d/internal/obs"
	"tap25d/internal/perf"
	"tap25d/internal/placer"
	"tap25d/internal/render"
	"tap25d/internal/route"
	"tap25d/internal/seqpair"
	"tap25d/internal/signal"
	"tap25d/internal/surrogate"
	"tap25d/internal/systems"
	"tap25d/internal/tdp"
	"tap25d/internal/thermal"
)

// Core types, aliased from the implementation packages so user code needs
// only this import.
type (
	// System describes a heterogeneous 2.5D system: interposer, chiplets,
	// and the logical inter-chiplet channels.
	System = chiplet.System
	// Chiplet is a die with dimensions (mm) and power (W).
	Chiplet = chiplet.Chiplet
	// Channel is a logical inter-chiplet link with a required wire count.
	Channel = chiplet.Channel
	// Placement assigns center coordinates and rotations to chiplets.
	Placement = chiplet.Placement
	// Point is a location on the interposer in mm.
	Point = geom.Point
	// ThermalResult is a steady-state thermal solution.
	ThermalResult = thermal.Result
	// RouteResult is an inter-chiplet routing solution.
	RouteResult = route.Result
	// RouteFlow is one clump-to-clump wire bundle of a routing solution.
	RouteFlow = route.Flow
	// TDPResult is a thermal design power envelope.
	TDPResult = tdp.Result
	// PerfWorkload is a synthetic benchmark for the link-latency study.
	PerfWorkload = perf.Workload
	// PerfStudy is one link-latency study row.
	PerfStudy = perf.Study
	// SASample records one simulated-annealing step (Options.History).
	SASample = placer.Sample
	// WireParams is the interposer wire electrical model.
	WireParams = signal.WireParams
	// LinkAnalysis classifies routed links into latency classes.
	LinkAnalysis = signal.LinkClass
	// PlacementImpact is the end-to-end performance assessment of a
	// placement's link-latency mix plus its TDP-funded frequency uplift.
	PlacementImpact = perf.PlacementImpact
	// TransientResult traces peak temperature over time after a power step.
	TransientResult = thermal.Transient
	// LiquidCooling parameterizes the microchannel cold-plate alternative to
	// the forced-air heatsink (the "advanced but expensive cooling" of the
	// paper's introduction).
	LiquidCooling = thermal.LiquidCooling
	// EvalCounters aggregates evaluation statistics of a flow: thermal
	// solves, CG iterations, full/delta/skipped matrix assemblies, router
	// calls.
	EvalCounters = metrics.Counters
	// RunEvent is one structured progress record of an annealing run
	// (Options.Progress); it serializes as one JSON object per line.
	RunEvent = placer.Event
	// RunCheckpoint is a complete resumable snapshot of an annealing run
	// (Options.Checkpoint / Resume).
	RunCheckpoint = placer.Checkpoint
	// JSONLSink appends RunEvents as JSON Lines to a writer; safe for
	// concurrent use by parallel runs.
	JSONLSink = placer.JSONLSink
	// Observer collects observability data — span timings, phase
	// histograms, CG convergence traces, live run status — across a flow.
	// nil disables observability at negligible cost (Options.Observer).
	Observer = obs.Observer
	// ObsReport is an end-of-run observability summary (Observer.Report):
	// phase timing histograms, CG convergence statistics, counters, and a
	// benchmark-file-compatible restatement of the same numbers.
	ObsReport = obs.Report
	// DebugServer is a running debug/metrics HTTP endpoint (ServeDebug).
	DebugServer = obs.Server
	// CheckpointStore is a durable per-run checkpoint directory: CRC-sealed
	// snapshots, fsync'd writes, a previous-generation fallback on corrupt
	// resumes, and bounded write retry. Its Checkpoint and Restore methods
	// plug into Options.Checkpoint / Options.Restore.
	CheckpointStore = placer.FileStore
	// RouteInfeasibleError is the concrete error (errors.As) behind
	// ErrRouteInfeasible; it names the limiting pin-clump capacities.
	RouteInfeasibleError = route.InfeasibleError
	// SolveRecovery describes how a thermal solve was rescued after CG
	// non-convergence (ThermalResult.Recovery; nil on the happy path).
	SolveRecovery = thermal.RecoveryInfo
	// FaultInjector deterministically injects failures at named points
	// (Options.FaultInjector, CheckpointStore.Inject) for resilience tests
	// and kill-drills. nil disables injection at negligible cost.
	FaultInjector = faultinject.Injector
	// FaultSpec arms one injection point (see FaultInjector.Arm).
	FaultSpec = faultinject.Spec
	// FaultPoint names an injection point.
	FaultPoint = faultinject.Point
	// SurrogateConfig tunes the analytical-surrogate prescreen of the
	// two-fidelity evaluator (Options.SurrogateConfig): fit window, margin,
	// audit cadence and bound, widened-margin recovery.
	SurrogateConfig = surrogate.Config
	// SurrogateStats summarizes a run's two-fidelity evaluation: prescreen
	// and reject counts, drift audits and refits, drift RMS and hit rate
	// (Result.Surrogate; also attached to lifecycle RunEvents).
	SurrogateStats = placer.SurrogateStats
)

// Failure sentinels, matchable with errors.Is.
var (
	// ErrRouteInfeasible marks a placement whose wire demand exceeds the
	// pin-clump capacities (Eqn. 7): retrying the same routing call cannot
	// succeed, only a different placement or larger pin budget can.
	ErrRouteInfeasible = route.ErrInfeasible
	// ErrCheckpointCorrupt marks a checkpoint rejected for damaged bytes
	// (truncation, garbage, checksum mismatch).
	ErrCheckpointCorrupt = placer.ErrCheckpointCorrupt
	// ErrCheckpointVersion marks a checkpoint written by an incompatible
	// format version.
	ErrCheckpointVersion = placer.ErrCheckpointVersion
	// ErrFaultInjected marks failures produced by a FaultInjector.
	ErrFaultInjected = faultinject.ErrInjected
)

// Fault injection points (FaultInjector.Arm).
const (
	FaultCGSolve         = faultinject.PointCGSolve
	FaultThermalAssemble = faultinject.PointThermalAssemble
	FaultCheckpointWrite = faultinject.PointCheckpointWrite
	FaultCheckpointRead  = faultinject.PointCheckpointRead
	FaultJournalWrite    = faultinject.PointJournalWrite
	FaultExperimentFlow  = faultinject.PointExperimentFlow
)

// NewFaultInjector creates a seeded deterministic fault injector. Arm points
// on it and pass it to Options.FaultInjector (or a CheckpointStore / JSONLSink)
// to rehearse failures; an unarmed or nil injector never fires.
func NewFaultInjector(seed int64) *FaultInjector { return faultinject.New(seed) }

// RunEvent kinds (RunEvent.Kind).
const (
	EventStep           = placer.EventStep
	EventCheckpoint     = placer.EventCheckpoint
	EventResume         = placer.EventResume
	EventFinal          = placer.EventFinal
	EventInterrupted    = placer.EventInterrupted
	EventStepSkipped    = placer.EventStepSkipped
	EventResumeFallback = placer.EventResumeFallback
	EventAnomaly        = placer.EventAnomaly
)

// NewJSONLSink wraps w (typically the run journal file) as an event sink;
// pass its Emit method to Options.Progress.
func NewJSONLSink(w io.Writer) *JSONLSink { return placer.NewJSONLSink(w) }

// NewObserver creates an enabled observability collector to pass as
// Options.Observer (and, optionally, to ServeDebug). An Observer is safe for
// concurrent use and may be shared across flows to aggregate them.
func NewObserver() *Observer { return obs.New() }

// ServeDebug starts the observability HTTP server on addr (e.g.
// "localhost:6060"; ":0" picks a free port, readable via Addr). It serves
// Prometheus text metrics on /metrics, a JSON view of the live annealer on
// /run (time series on /run/series), the full ObsReport on /report, and the
// standard net/http/pprof and expvar handlers under /debug/. Close the
// returned server when done.
func ServeDebug(addr string, o *Observer) (*DebugServer, error) {
	return obs.Serve(addr, o)
}

// SaveCheckpoint durably writes a run snapshot to path: the payload is
// sealed in a CRC-checksummed envelope, written atomically (temp file +
// fsync + rename + directory fsync), and the previous snapshot is rotated to
// path+".prev" so one surviving generation always exists even if the newest
// write is torn by a crash.
func SaveCheckpoint(path string, cp *RunCheckpoint) error {
	return placer.SaveCheckpointFile(path, cp)
}

// LoadCheckpoint reads a snapshot written by SaveCheckpoint, verifying its
// checksum. When the newest generation is corrupt or version-skewed it falls
// back to path+".prev"; rejections match ErrCheckpointCorrupt or
// ErrCheckpointVersion. Use a CheckpointStore to observe the fallback (event
// + counter) or to forbid it (Strict).
func LoadCheckpoint(path string) (*RunCheckpoint, error) {
	return placer.LoadCheckpointFile(path)
}

// DefaultWire returns the 65 nm passive-interposer wire parameters.
func DefaultWire() WireParams { return signal.DefaultWire() }

// CriticalC is the default thermal feasibility threshold (85 °C).
const CriticalC = systems.CriticalC

// BuiltinSystemNames lists the paper's case-study systems.
func BuiltinSystemNames() []string { return systems.Names() }

// BuiltinSystem returns one of the paper's case-study systems by name
// ("multigpu", "cpudram", "ascend910").
func BuiltinSystem(name string) (*System, error) { return systems.ByName(name) }

// MultiGPUSystem returns case study 1 on an edge×edge interposer (the paper
// evaluates 45 and 50 mm).
func MultiGPUSystem(edgeMM float64) *System { return systems.MultiGPUAt(edgeMM) }

// CPUDRAMOriginalPlacement returns the original (pre-TAP) placement of the
// CPU-DRAM system (Fig. 5a).
func CPUDRAMOriginalPlacement() Placement { return systems.CPUDRAMOriginal() }

// Ascend910OriginalPlacement returns the commercial Ascend 910 layout
// (Fig. 6a).
func Ascend910OriginalPlacement() Placement { return systems.Ascend910Original() }

// CPUDRAMCPUIndices returns the chiplets whose power the paper's TDP
// analysis varies.
func CPUDRAMCPUIndices() []int { return systems.CPUDRAMCPUIndices() }

// LoadSystem decodes and validates a JSON system description.
func LoadSystem(r io.Reader) (*System, error) { return chiplet.DecodeJSON(r) }

// Options configures the placement flow. The zero value runs a reduced-cost
// but representative configuration; see the field docs for the paper's
// full-fidelity settings.
type Options struct {
	// ThermalGrid is the thermal model resolution (default 64, as in the
	// paper; use 32 for fast exploration).
	ThermalGrid int
	// Steps is the SA step budget per run (default 1000; the paper uses
	// 4500). Negative Steps, Runs and CompactSteps are errors.
	Steps int
	// Runs is the number of independent annealing runs; the best solution
	// wins (default 1; the paper uses 5).
	Runs int
	// Seed makes the whole flow reproducible.
	Seed int64
	// GasStation routes with 2-stage pipelined links through intermediate
	// chiplets (Eqn. 9) instead of repeaterless point-to-point links.
	GasStation bool
	// ExactRouting re-routes the final placement with the exact MILP
	// (the paper's CPLEX step) instead of the fast heuristic router.
	ExactRouting bool
	// CriticalC overrides the 85 °C feasibility threshold.
	CriticalC float64
	// CompactSteps is the B*-tree fast-SA budget for the Compact-2.5D
	// baseline / initial placement (default 20000).
	CompactSteps int
	// InitialPlacement overrides the Compact-2.5D initial placement.
	InitialPlacement *Placement
	// History records per-step SA samples in Result.History.
	History bool
	// DisableJump and FixedAlpha expose the E9 ablations.
	DisableJump bool
	FixedAlpha  float64
	// Surrogate enables the two-fidelity evaluator: an analytical thermal
	// surrogate (internal/surrogate), fitted online against the exact
	// solves the run performs anyway, prescreens every SA candidate and
	// declines clearly-rejected moves without paying the finite-difference
	// solve; periodic drift audits keep it honest. Off (the default) is
	// byte-identical to the single-fidelity flow; on, results remain
	// deterministic at fixed seed and checkpoint/resume-compatible, but
	// follow a different (much cheaper) trajectory.
	Surrogate bool
	// SurrogateConfig overrides the surrogate defaults (nil uses them);
	// ignored unless Surrogate is set.
	SurrogateConfig *SurrogateConfig

	// Run orchestration. None of these affect the annealing trajectory;
	// they add cancellation, observability and resumability around it.

	// Context, when non-nil, allows canceling the placement flow: on
	// cancellation Place stops the annealing runs cleanly, finalizes the
	// best solution found so far, and returns that Result together with
	// the context's error (check errors.Is(err, context.Canceled)).
	Context context.Context
	// Progress, when non-nil, receives structured run events: one "step"
	// event every ProgressEvery completed steps per run, plus lifecycle
	// events (checkpoint, resume, final, interrupted). With Runs > 1 it is
	// called concurrently and must be safe for concurrent use (JSONLSink
	// is).
	Progress func(RunEvent)
	// ProgressEvery is the step-event cadence (0 disables step events;
	// lifecycle events are emitted whenever Progress is set).
	ProgressEvery int
	// CheckpointEvery hands a resumable snapshot to Checkpoint every
	// CheckpointEvery completed steps per run (0 disables periodic
	// snapshots; a final snapshot is always written on cancellation when
	// Checkpoint is set).
	CheckpointEvery int
	// Checkpoint persists run snapshots (distinguish parallel runs by
	// cp.Run); a returned error aborts the flow.
	Checkpoint func(cp *RunCheckpoint) error
	// Restore is consulted once per run index before that run starts: a
	// non-nil snapshot resumes the run bit-compatibly instead of starting
	// fresh (see placer.Resume for the exact contract).
	Restore func(run int) (*RunCheckpoint, error)
	// Observer, when non-nil, collects span timings, phase histograms and
	// CG convergence traces across the whole flow (annealing runs and the
	// final full-fidelity evaluation). Instrumentation is timing-only:
	// observed and unobserved flows produce bit-identical results, and a
	// nil Observer costs only pointer tests on the hot paths.
	Observer *Observer

	// Failure-domain controls. Like orchestration, none of these affect a
	// fault-free annealing trajectory: recovery and skip paths only
	// activate on failures, so default and hardened runs are bit-identical
	// until something actually goes wrong.

	// DisableRecovery turns off the thermal solver's recovery ladder
	// (cold restart, multigrid preconditioner, relaxed tolerance): the
	// first CG non-convergence fails the solve, as before this option
	// existed. Useful to make numerical trouble loud in CI.
	DisableRecovery bool
	// EvalFailureBudget, when positive, lets each annealing run skip SA
	// steps whose evaluation failed transiently, up to this many
	// consecutive failures (the counter resets on success). 0 keeps the
	// historical fail-fast behavior.
	EvalFailureBudget int
	// FaultInjector, when non-nil, injects deterministic failures at the
	// Fault* points inside the flow (CG solves, thermal assembly) for
	// resilience rehearsals. nil disables injection.
	FaultInjector *FaultInjector
}

func (o Options) thermalOptions(sys *System) thermal.Options {
	grid := o.ThermalGrid
	if grid == 0 {
		grid = 64
	}
	stack := material.DefaultStackFor(sys.InterposerW, sys.InterposerH)
	return thermal.Options{Grid: grid, Stack: &stack,
		Obs: o.Observer, DisableRecovery: o.DisableRecovery,
		Inject: o.FaultInjector}
}

func (o Options) routeOptions() route.Options {
	return route.Options{GasStation: o.GasStation, Obs: o.Observer}
}

func (o Options) placerOptions() placer.Options {
	fa := o.FixedAlpha
	if fa == 0 {
		fa = -1
	}
	return placer.Options{
		Steps:             o.Steps,
		Seed:              o.Seed,
		CriticalC:         o.CriticalC,
		CompactSteps:      o.CompactSteps,
		Initial:           o.InitialPlacement,
		History:           o.History,
		DisableJump:       o.DisableJump,
		FixedAlpha:        fa,
		Progress:          o.Progress,
		ProgressEvery:     o.ProgressEvery,
		CheckpointEvery:   o.CheckpointEvery,
		Checkpoint:        o.Checkpoint,
		Restore:           o.Restore,
		Obs:               o.Observer,
		EvalFailureBudget: o.EvalFailureBudget,
	}
}

// checkBudgets rejects negative step and run budgets, naming the field, as
// the service's job validation does; 0 selects each field's default.
func (o Options) checkBudgets() error {
	for _, f := range []struct {
		name string
		val  int
	}{{"Steps", o.Steps}, {"Runs", o.Runs}, {"CompactSteps", o.CompactSteps}} {
		if f.val < 0 {
			return fmt.Errorf("tap25d: Options.%s is %d; want 0 (the default) or more", f.name, f.val)
		}
	}
	return nil
}

func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Result is the outcome of a placement or evaluation.
type Result struct {
	// Placement is the solution.
	Placement Placement
	// PeakC and WirelengthMM are its metrics (°C, mm).
	PeakC        float64
	WirelengthMM float64
	// Feasible reports PeakC <= critical threshold.
	Feasible bool
	// Thermal is the full temperature field of the solution.
	Thermal *ThermalResult
	// Routing is the final routing solution.
	Routing *RouteResult
	// InitialPlacement and its metrics (TAP-2.5D flow only).
	InitialPlacement  Placement
	InitialPeakC      float64
	InitialWirelength float64
	// History holds per-step SA samples when Options.History is set
	// (single-run flows only).
	History []SASample
	// Interrupted reports that the flow was canceled (Options.Context) and
	// the Result describes the best solution found before the interruption
	// rather than a completed search.
	Interrupted bool
	// Metrics aggregates the evaluation counters of the whole flow: every
	// annealing run's evaluator plus the final full-fidelity evaluation.
	Metrics EvalCounters
	// Surrogate carries the pooled two-fidelity statistics of the annealing
	// runs when Options.Surrogate was set (nil otherwise).
	Surrogate *SurrogateStats
}

func (o Options) critical() float64 {
	if o.CriticalC != 0 {
		return o.CriticalC
	}
	return CriticalC
}

// finalize evaluates placement p at full fidelity and assembles a Result.
// It solves on model, a model built from opt.thermalOptions(sys) by an
// earlier owner, or on one from the idle pool when model is nil, and hands
// the model back to the pool after the solve. A model is reset cold before
// the solve: it rewrites the whole matrix in place and starts from the cold
// guess, so field and counters are those a fresh model gives, and they
// count in this Result's Metrics, not its old owner's.
func finalize(sys *System, p Placement, opt Options, model *thermal.Model) (*Result, error) {
	var ctr EvalCounters
	topt := opt.thermalOptions(sys)
	topt.Counters = &ctr
	if model == nil {
		var err error
		if model, err = thermal.Acquire(sys.InterposerW, sys.InterposerH, topt); err != nil {
			return nil, err
		}
	} else {
		model.ResetCold(topt.Counters, topt.Obs, topt.Inject)
	}
	tres, err := model.Solve(placer.Sources(sys, p))
	model.Release()
	if err != nil {
		return nil, err
	}
	ropt := opt.routeOptions()
	if opt.ExactRouting {
		ropt.Method = route.MethodMILP
	}
	ctr.Evaluations++
	ctr.RouteCalls++
	rres, err := route.Route(sys, p, ropt)
	if err != nil {
		return nil, wrapRouteErr(err)
	}
	// This evaluation runs outside any annealing run; fold its counters into
	// the observer so the end-of-flow report accounts for the whole flow.
	opt.Observer.AbsorbCounters(ctr)
	return &Result{
		Placement:    p,
		PeakC:        tres.PeakC,
		WirelengthMM: rres.TotalWirelengthMM,
		Feasible:     tres.PeakC <= opt.critical(),
		Thermal:      tres,
		Routing:      rres,
		Metrics:      ctr,
	}, nil
}

// Evaluate computes the thermal field and routing of an existing placement
// (e.g. the paper's "original" layouts) without running the placer.
func Evaluate(sys *System, p Placement, opt Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := sys.CheckPlacement(p); err != nil {
		return nil, err
	}
	return finalize(sys, p, opt, nil)
}

// Place runs the full TAP-2.5D flow: Compact-2.5D initial placement,
// thermally-aware simulated annealing (best of Options.Runs), and a final
// full-fidelity evaluation.
//
// When Options.Context is canceled mid-flow, Place still finalizes and
// returns the best solution found so far (Result.Interrupted set) alongside
// the cancellation error — callers that want the partial answer must check
// the Result even when err != nil.
func Place(sys *System, opt Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := opt.checkBudgets(); err != nil {
		return nil, err
	}
	factory := func() (placer.Evaluator, error) {
		ev, err := placer.NewSystemEvaluator(sys, opt.thermalOptions(sys), opt.routeOptions())
		if err != nil {
			return nil, err
		}
		if opt.Surrogate {
			var scfg SurrogateConfig
			if opt.SurrogateConfig != nil {
				scfg = *opt.SurrogateConfig
			}
			return placer.NewSurrogateEvaluator(ev, scfg, opt.Observer), nil
		}
		return ev, nil
	}
	runs := opt.Runs
	if runs == 0 {
		runs = 1
	}
	pres, perr := placer.PlaceBestOfContext(opt.context(), sys, factory, runs, opt.placerOptions())
	if pres == nil {
		return nil, perr
	}
	// The runs that lost are back in the idle pool; the winner's model
	// finishes the flow and goes back last, so the next Acquire of this
	// construction (a corner screen of the placement) takes the model whose
	// last solve was this placement.
	res, err := finalize(sys, pres.Placement, opt, pres.Model)
	if err != nil {
		return nil, err
	}
	res.InitialPlacement = pres.Initial
	res.InitialPeakC = pres.InitialPeakC
	res.InitialWirelength = pres.InitialWirelength
	res.History = pres.History
	res.Interrupted = pres.Interrupted
	res.Metrics.Merge(pres.Metrics)
	res.Surrogate = pres.Surrogate
	return res, perr
}

// PlaceCompact runs the Compact-2.5D baseline (B*-tree + fast-SA) and
// evaluates the resulting placement.
func PlaceCompact(sys *System, opt Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := opt.checkBudgets(); err != nil {
		return nil, err
	}
	steps := opt.CompactSteps
	if steps == 0 {
		steps = 20000
	}
	cres, err := btree.PlaceCompact(sys, btree.Options{Seed: opt.Seed, Steps: steps})
	if err != nil {
		return nil, err
	}
	return finalize(sys, cres.Placement, opt, nil)
}

// PlaceCompactSeqPair runs the alternative compact baseline built on the
// Sequence Pair representation (Murata et al., TCAD'96 — the first of the
// compact floorplan representations the paper's Section II surveys) and
// evaluates the resulting placement. Useful as an independent cross-check of
// the B*-tree baseline.
func PlaceCompactSeqPair(sys *System, opt Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := opt.checkBudgets(); err != nil {
		return nil, err
	}
	steps := opt.CompactSteps
	if steps == 0 {
		steps = 20000
	}
	cres, err := seqpair.PlaceCompact(sys, seqpair.Options{Seed: opt.Seed, Steps: steps})
	if err != nil {
		return nil, err
	}
	return finalize(sys, cres.Placement, opt, nil)
}

// InterposerCostRatio estimates the relative manufacturing cost of a
// bWxbH mm interposer versus an aWxaH mm one, including wafer edge loss and
// defect yield (the paper's "+33%" for 45 -> 50 mm).
func InterposerCostRatio(aW, aH, bW, bH float64) float64 {
	return interposercost.Default().Ratio(aW, aH, bW, bH)
}

// TDPEnvelope finds the maximum total power (W) of sys under placement p
// that keeps the peak temperature at or below the critical threshold,
// scaling the chiplets in vary (nil scales all). This is the paper's
// Section IV-B analysis.
func TDPEnvelope(sys *System, p Placement, vary []int, opt Options) (*TDPResult, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	model, err := thermal.Acquire(sys.InterposerW, sys.InterposerH, opt.thermalOptions(sys))
	if err != nil {
		return nil, err
	}
	defer model.Release()
	return tdp.Envelope(sys, p, model, tdp.Options{
		CriticalC:   opt.critical(),
		VaryIndices: vary,
	})
}

// EvaluateScenarios returns the thermal field of placement p under several
// whole-system power corners: corner c scales every chiplet's power by
// powerScales[c]. The steady-state model is linear in power (conductances
// depend on footprints only), so the placement is solved once at nominal
// power and corner c is exactly powerScales[c] times that temperature rise
// over the ambient: the 1.0 corner is bit-identical to Evaluate's field, a
// 0 corner is the ambient field, and every corner carries the nominal
// solve's residual (it is not bit-identical to a separate solve at that
// power, which would stop CG at a different iterate). Scales must be finite
// and non-negative. This is the entry the best-of-N flows and service jobs
// use for power-corner screening; honor Options.Context for cancellation.
// The solve runs on a model from the idle pool (thermal.Acquire): right
// after Place with the same ThermalGrid, that is the model whose last solve
// was Place's final evaluation, so the screen builds no model, matrix or
// hierarchy, and its field is still that of a fresh model.
func EvaluateScenarios(sys *System, p Placement, powerScales []float64, opt Options) ([]*ThermalResult, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := sys.CheckPlacement(p); err != nil {
		return nil, err
	}
	model, err := thermal.Acquire(sys.InterposerW, sys.InterposerH, opt.thermalOptions(sys))
	if err != nil {
		return nil, err
	}
	defer model.Release()
	return model.SolveScaled(opt.context(), placer.Sources(sys, p), powerScales)
}

// EvaluateLiquid scores placement p under microchannel liquid cooling
// instead of the forced-air heatsink: the paper's introduction frames this
// as the expensive alternative to thermally-aware placement, and this
// function lets the two be compared directly (experiment E12).
// Options.Context cancels the conduction solves.
func EvaluateLiquid(sys *System, p Placement, lc LiquidCooling, opt Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := sys.CheckPlacement(p); err != nil {
		return nil, err
	}
	model, err := thermal.NewModel(sys.InterposerW, sys.InterposerH, opt.thermalOptions(sys))
	if err != nil {
		return nil, err
	}
	ctx := opt.context()
	tres, err := model.SolveLiquid(ctx, placer.Sources(sys, p), lc)
	if err != nil {
		return nil, err
	}
	ropt := opt.routeOptions()
	if opt.ExactRouting {
		ropt.Method = route.MethodMILP
	}
	rres, err := route.RouteContext(ctx, sys, p, ropt)
	if err != nil {
		return nil, wrapRouteErr(err)
	}
	return &Result{
		Placement:    p,
		PeakC:        tres.PeakC,
		WirelengthMM: rres.TotalWirelengthMM,
		Feasible:     tres.PeakC <= opt.critical(),
		Thermal:      tres,
		Routing:      rres,
	}, nil
}

// wrapRouteErr gives routing failures a facade-level diagnosis: an
// infeasible instance is a property of the placement-vs-pin-budget pairing,
// not a transient fault, and the wrapped error stays errors.Is-matchable
// against ErrRouteInfeasible.
func wrapRouteErr(err error) error {
	if errors.Is(err, ErrRouteInfeasible) {
		return fmt.Errorf("tap25d: placement cannot be wired within the pin-clump budgets — raise PinsPerClumpLimit or change the placement: %w", err)
	}
	return err
}

// Transient simulates the thermal step response of placement p: the package
// starts at ambient, the chiplets switch on at full power, and the peak
// temperature is traced over nsteps backward-Euler steps of dtS seconds.
// Use TransientResult.TimeToThresholdS to answer boost-residency questions
// ("how long until this placement hits 85 °C?") — an extension of the
// paper's steady-state methodology. Options.Context cancels the
// simulation between steps and inside each step's solve.
func Transient(sys *System, p Placement, dtS float64, nsteps int, opt Options) (*TransientResult, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := sys.CheckPlacement(p); err != nil {
		return nil, err
	}
	model, err := thermal.NewModel(sys.InterposerW, sys.InterposerH, opt.thermalOptions(sys))
	if err != nil {
		return nil, err
	}
	return model.SolveTransient(opt.context(), placer.Sources(sys, p), dtS, nsteps)
}

// LinkLatencyStudy reproduces the Section IV-B performance numbers: the
// slowdown of each synthetic PARSEC/SPLASH2/UHPC workload when the
// inter-chiplet link latency grows from 1 cycle to each value in latencies.
func LinkLatencyStudy(latencies []int, seed int64) ([]PerfStudy, error) {
	return perf.RunStudy(latencies, perf.Config{Seed: seed})
}

// PerfWorkloads returns the synthetic benchmark set of LinkLatencyStudy.
func PerfWorkloads() []PerfWorkload { return perf.Workloads() }

// AnalyzeLinks classifies every routed wire of r into link latency classes
// at the given clock using the default interposer wire model: how many wires
// are single-cycle, how many need gas stations or multi-cycle links, and the
// total signaling energy per transfer.
func AnalyzeLinks(r *RouteResult, clockGHz float64) (*LinkAnalysis, error) {
	if r == nil {
		return nil, fmt.Errorf("tap25d: nil routing result")
	}
	lengths := make([]float64, len(r.Flows))
	wires := make([]int, len(r.Flows))
	for i, f := range r.Flows {
		lengths[i] = f.LengthPerWire
		wires[i] = f.Wires
	}
	return signal.DefaultWire().Classify(lengths, wires, clockGHz)
}

// AssessPerformance converts a routing solution into the paper's
// Section IV-B performance terms: the slowdown its link latency mix causes
// on the synthetic PARSEC/SPLASH2/UHPC suite and the net speedup once
// freqUplift (e.g. the TDP-envelope gain) is applied. clockGHz sets the
// nominal link clock for latency classification.
func AssessPerformance(r *RouteResult, clockGHz, freqUplift float64, seed int64) (*PlacementImpact, error) {
	links, err := AnalyzeLinks(r, clockGHz)
	if err != nil {
		return nil, err
	}
	if len(links.CyclesHistogram) == 0 {
		return nil, fmt.Errorf("tap25d: routing result has no flows to assess")
	}
	return perf.AssessPlacement(links.CyclesHistogram, freqUplift, perf.Config{Seed: seed})
}

// ThermalASCII renders a result's thermal map with chiplet outlines.
func ThermalASCII(sys *System, res *Result, cols int) string {
	if res.Thermal == nil {
		return "(no thermal data)"
	}
	return render.ThermalASCII(res.Thermal, sys, res.Placement, cols)
}

// PlacementASCII renders a placement as a labeled floorplan.
func PlacementASCII(sys *System, p Placement, cols int) string {
	return render.PlacementASCII(sys, p, cols)
}

// WriteThermalPPM writes a result's thermal map as a PPM image.
func WriteThermalPPM(w io.Writer, res *Result, scale int) error {
	if res.Thermal == nil {
		return fmt.Errorf("tap25d: result has no thermal data")
	}
	return render.WritePPM(w, res.Thermal, scale)
}

// PlacementSimilarity reports how close two placements of sys are: the mean
// per-chiplet center distance in mm, minimized over interposer symmetries
// and permutations of identical chiplets. Near-zero means "the same
// floorplan" — the quantitative version of the paper's Section IV-C claim
// that TAP-2.5D reproduces the commercial Ascend 910 layout.
func PlacementSimilarity(sys *System, a, b Placement) float64 {
	return sys.Similarity(a, b)
}

// WritePlacementSVG renders a placement (with the thermal field underlaid
// when res.Thermal is present) as a self-contained SVG vector figure.
func WritePlacementSVG(w io.Writer, sys *System, res *Result, pxPerMM float64) error {
	return render.WriteSVG(w, sys, res.Placement, res.Thermal, pxPerMM)
}

// CheckRouting verifies a routing solution against the paper's constraints
// (Eqns. 4-9); useful when post-processing Result.Routing.
func CheckRouting(sys *System, r *RouteResult) error {
	return route.Check(sys, r, nil)
}

// WriteHistoryCSV dumps simulated-annealing samples (Options.History) as CSV
// for convergence plots: step, operator, temperature, wirelength, cost,
// annealing temperature K, alpha, accepted.
func WriteHistoryCSV(w io.Writer, hist []SASample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"step", "op", "temp_c", "wirelength_mm", "cost", "k", "alpha", "accepted"}); err != nil {
		return err
	}
	for _, s := range hist {
		rec := []string{
			strconv.Itoa(s.Step),
			s.Op.String(),
			strconv.FormatFloat(s.TempC, 'f', 4, 64),
			strconv.FormatFloat(s.WirelengthMM, 'f', 1, 64),
			strconv.FormatFloat(s.Cost, 'f', 6, 64),
			strconv.FormatFloat(s.K, 'f', 6, 64),
			strconv.FormatFloat(s.Alpha, 'f', 4, 64),
			strconv.FormatBool(s.Accepted),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
