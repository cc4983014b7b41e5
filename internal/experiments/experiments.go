// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) end-to-end: the three case studies (Figs. 4-6),
// the interposer-size study, the TDP analysis, the link-latency performance
// numbers, the scalability discussion, and the repo's own ablations and
// extensions. DESIGN.md carries the experiment index (E1-E13); EXPERIMENTS.md
// records paper-vs-measured values.
//
// Each experiment returns a structured Report so both the cmd/experiments
// binary and the root bench suite can assert the paper's "shape": who wins,
// by roughly what factor, and on which side of the 85 °C threshold each
// design lands.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"tap25d"
	"tap25d/internal/chiplet"
	"tap25d/internal/faultinject"
	"tap25d/internal/geom"
	"tap25d/internal/interposercost"
	"tap25d/internal/lp"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
	"tap25d/internal/ocm"
	"tap25d/internal/placer"
	"tap25d/internal/route"
	"tap25d/internal/systems"
	"tap25d/internal/thermal"
)

// Config sets the fidelity of the runs. Zero values take the Reduced preset.
type Config struct {
	// ThermalGrid is the thermal resolution (paper: 64).
	ThermalGrid int
	// Steps is the SA budget per run (paper: 4500).
	Steps int
	// Runs is the number of independent SA runs (paper: 5).
	Runs int
	// CompactSteps budgets the B*-tree baseline.
	CompactSteps int
	// Seed drives all randomness.
	Seed int64
	// Surrogate enables the two-fidelity evaluator in every annealing flow:
	// the analytical thermal surrogate prescreens SA candidates and only
	// surrogate-approved moves pay the exact solve (tap25d.Options.Surrogate).
	// Off by default, which keeps experiment results byte-identical to the
	// exact-only flow.
	Surrogate bool

	// orch carries the campaign's run-orchestration state when the
	// experiment was started through RunOrchestrated; nil means plain
	// uncancellable execution (Run).
	orch *orchestrator
}

// Orchestration wires resilience into an experiment campaign: cooperative
// cancellation, periodic checkpoints that survive a kill, resuming an
// interrupted campaign, and structured progress events.
type Orchestration struct {
	// Context cancels in-flight placement flows (nil means background).
	// On cancellation the current flow checkpoints and stops, and the
	// campaign returns the context's error.
	Context context.Context
	// CheckpointDir is where run snapshots are written (one JSON file per
	// annealing run, named ckpt-f<flow>-r<run>.json by the flow's position
	// in the experiment and the run index). Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in SA steps (0 disables
	// periodic snapshots; a final snapshot is still written on
	// cancellation when CheckpointDir is set).
	CheckpointEvery int
	// Resume makes each flow look for existing snapshots in CheckpointDir
	// and continue from them. Flows that previously completed cleanly have
	// no snapshots (they are removed on completion) and re-run from
	// scratch; only the interrupted flow resumes mid-anneal.
	Resume bool
	// Progress receives structured run events (see tap25d.RunEvent); with
	// Runs > 1 it must be safe for concurrent use.
	Progress func(tap25d.RunEvent)
	// ProgressEvery is the step-event cadence (0 disables step events).
	ProgressEvery int
	// Obs, when non-nil, collects observability data (span timings, phase
	// histograms, CG convergence traces) across every placement flow of the
	// campaign; nil disables it.
	Obs *tap25d.Observer
	// Strict disables the corrupt-checkpoint fallback on resume: a damaged
	// newest snapshot fails the campaign instead of silently continuing
	// from the previous generation.
	Strict bool
	// EvalFailureBudget, when positive, lets each annealing run ride
	// through up to this many consecutive transient evaluation failures
	// by skipping the affected SA steps (see tap25d.Options).
	EvalFailureBudget int
	// DisableRecovery turns off the thermal solver's CG recovery ladder
	// across the campaign's flows.
	DisableRecovery bool
	// Inject, when non-nil, injects deterministic faults into the
	// campaign: each placement flow hits faultinject.PointExperimentFlow
	// before it starts, the flows' thermal solves hit the solver points,
	// and checkpoint I/O hits the read/write points. nil disables
	// injection.
	Inject *tap25d.FaultInjector
}

// orchestrator threads Orchestration through an experiment and assigns each
// tap25d.Place call a deterministic flow sequence number. Experiments invoke
// their placement flows in fixed source order, so flow numbering — and hence
// checkpoint file naming — is stable across processes, which is what lets a
// resumed campaign match snapshots back to the flows that wrote them.
type orchestrator struct {
	Orchestration
	flow int
}

// store builds the flow's durable checkpoint store: CRC-sealed generational
// snapshots named ckpt-f<flow>-r<run>.json, with resume fallback to the
// previous generation surfaced through the campaign's Progress sink (unless
// Strict forbids the fallback).
func (o *orchestrator) store(flow int) *placer.FileStore {
	st := &placer.FileStore{
		Dir:    o.CheckpointDir,
		Name:   func(run int) string { return fmt.Sprintf("ckpt-f%d-r%d.json", flow, run) },
		Strict: o.Strict,
		Obs:    o.Obs,
		Inject: o.Inject,
	}
	if o.Progress != nil {
		st.Events = o.Progress
	}
	return st
}

// place runs one placement flow with orchestration attached.
func (o *orchestrator) place(sys *tap25d.System, opt tap25d.Options) (*tap25d.Result, error) {
	flow := o.flow
	o.flow++
	if err := o.Inject.Hit(faultinject.PointExperimentFlow); err != nil {
		return nil, fmt.Errorf("experiments: flow %d: %w", flow, err)
	}
	opt.Context = o.Context
	opt.Progress = o.Progress
	opt.ProgressEvery = o.ProgressEvery
	opt.Observer = o.Obs
	opt.EvalFailureBudget = o.EvalFailureBudget
	opt.DisableRecovery = o.DisableRecovery
	opt.FaultInjector = o.Inject
	if o.CheckpointDir != "" {
		st := o.store(flow)
		opt.CheckpointEvery = o.CheckpointEvery
		opt.Checkpoint = st.Checkpoint
		if o.Resume {
			opt.Restore = st.Restore
		}
	}
	res, err := tap25d.Place(sys, opt)
	if err == nil && o.CheckpointDir != "" {
		// The flow finished: drop its snapshots so a later --resume of the
		// campaign re-runs it fresh instead of replaying a mid-run state.
		runs := opt.Runs
		if runs <= 0 {
			runs = 1
		}
		o.store(flow).Clean(runs)
	}
	return res, err
}

// place is the orchestration-aware stand-in for tap25d.Place that every
// experiment uses for its annealing flows.
func (c Config) place(sys *tap25d.System, opt tap25d.Options) (*tap25d.Result, error) {
	if c.orch == nil {
		return tap25d.Place(sys, opt)
	}
	return c.orch.place(sys, opt)
}

// Reduced returns the default quick-turnaround preset used by `go test
// -bench`: coarse grid, few steps — tens of seconds per experiment.
func Reduced() Config {
	return Config{ThermalGrid: 32, Steps: 300, Runs: 2, CompactSteps: 8000, Seed: 1}
}

// Full returns the paper-fidelity preset (hours of compute, as in the
// paper's 25-hour calibration).
func Full() Config {
	return Config{ThermalGrid: 64, Steps: 4500, Runs: 5, CompactSteps: 20000, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := Reduced()
	if c.ThermalGrid == 0 {
		c.ThermalGrid = d.ThermalGrid
	}
	if c.Steps == 0 {
		c.Steps = d.Steps
	}
	if c.Runs == 0 {
		c.Runs = d.Runs
	}
	if c.CompactSteps == 0 {
		c.CompactSteps = d.CompactSteps
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

func (c Config) options() tap25d.Options {
	return tap25d.Options{
		ThermalGrid:  c.ThermalGrid,
		Steps:        c.Steps,
		Runs:         c.Runs,
		Seed:         c.Seed,
		CompactSteps: c.CompactSteps,
		Surrogate:    c.Surrogate,
	}
}

// Row is one table row of a report.
type Row struct {
	Label string
	// TempC and WirelengthMM are the headline metrics (zero when not
	// applicable).
	TempC        float64
	WirelengthMM float64
	// Extra holds experiment-specific values (TDP watts, slowdown %, ...).
	Extra map[string]float64
}

// Report is a regenerated table/figure.
type Report struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string
	// Counters aggregates the evaluation statistics of every placement flow
	// behind the report (thermal solves, CG iterations, delta vs full matrix
	// assemblies, cache hits, router calls).
	Counters metrics.Counters
	// Elapsed is the wall-clock cost of regenerating the artifact.
	Elapsed time.Duration
}

// Format writes the report as an aligned text table.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s (took %v)\n", r.ID, r.Title, r.Elapsed.Round(time.Millisecond))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-34s", row.Label)
		if row.TempC != 0 {
			fmt.Fprintf(w, "  T=%7.2f C", row.TempC)
		}
		if row.WirelengthMM != 0 {
			fmt.Fprintf(w, "  WL=%9.0f mm", row.WirelengthMM)
		}
		if len(row.Extra) > 0 {
			keys := make([]string, 0, len(row.Extra))
			for k := range row.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "  %s=%.2f", k, row.Extra[k])
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if !r.Counters.IsZero() {
		fmt.Fprintf(w, "  counters: %s\n", r.Counters)
	}
}

// mergeCounters folds each result's evaluation counters into the report.
func mergeCounters(rep *Report, results ...*tap25d.Result) {
	for _, r := range results {
		if r != nil {
			rep.Counters.Merge(r.Metrics)
		}
	}
}

// IDs lists the experiment identifiers in run order.
func IDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}
}

// Run dispatches one experiment by ID.
func Run(id string, cfg Config) (*Report, error) {
	return RunOrchestrated(id, cfg, Orchestration{})
}

// RunOrchestrated dispatches one experiment with run orchestration attached:
// the experiment's placement flows honor orch.Context, checkpoint into
// orch.CheckpointDir, resume from earlier snapshots when orch.Resume is set,
// and report progress through orch.Progress. On cancellation the returned
// error wraps context.Canceled (or DeadlineExceeded); checkpoints for the
// interrupted flow remain on disk for a later resume.
func RunOrchestrated(id string, cfg Config, orch Orchestration) (*Report, error) {
	cfg = cfg.withDefaults()
	cfg.orch = &orchestrator{Orchestration: orch}
	switch strings.ToUpper(id) {
	case "E1":
		return E1MultiGPU(cfg)
	case "E2":
		return E2InterposerSize(cfg)
	case "E3":
		return E3CPUDRAM(cfg)
	case "E4":
		return E4TDP(cfg)
	case "E5":
		return E5LinkLatency(cfg)
	case "E6":
		return E6Ascend910(cfg)
	case "E7":
		return E7Scaling(cfg)
	case "E8":
		return E8MILPvsFast(cfg)
	case "E9":
		return E9Ablations(cfg)
	case "E10":
		return E10EndToEnd(cfg)
	case "E11":
		return E11CompactCrossCheck(cfg)
	case "E12":
		return E12CoolingTradeoff(cfg)
	case "E13":
		return E13AlphaSweep(cfg)
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}

// E1MultiGPU regenerates Fig. 4: the Multi-GPU system placed by
// Compact-2.5D, TAP-2.5D with repeaterless links, and TAP-2.5D with
// gas-station links.
func E1MultiGPU(cfg Config) (*Report, error) {
	start := time.Now()
	sys := systems.MultiGPU()
	opt := cfg.options()

	compact, err := tap25d.PlaceCompact(sys, opt)
	if err != nil {
		return nil, err
	}
	tapRL, err := cfg.place(sys, opt)
	if err != nil {
		return nil, err
	}
	optGas := opt
	optGas.GasStation = true
	tapGas, err := cfg.place(sys, optGas)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "E1",
		Title: "Multi-GPU system (Fig. 4): Compact-2.5D vs TAP-2.5D",
		Rows: []Row{
			{Label: "Compact-2.5D (a)", TempC: compact.PeakC, WirelengthMM: compact.WirelengthMM},
			{Label: "TAP-2.5D repeaterless (b)", TempC: tapRL.PeakC, WirelengthMM: tapRL.WirelengthMM},
			{Label: "TAP-2.5D gas-station (c)", TempC: tapGas.PeakC, WirelengthMM: tapGas.WirelengthMM},
		},
		Notes: []string{
			"paper: (a) 95.31 C / 88059 mm, (b) 91.25 C / 96906 mm, (c) 91.52 C / 51010 mm",
		},
		Elapsed: time.Since(start),
	}
	mergeCounters(rep, compact, tapRL, tapGas)
	return rep, nil
}

// E2InterposerSize regenerates the Section IV-A interposer-size study:
// 45 mm vs 50 mm interposers for both link types.
func E2InterposerSize(cfg Config) (*Report, error) {
	start := time.Now()
	opt := cfg.options()
	var rows []Row
	var ctr metrics.Counters
	results := map[string]*tap25d.Result{}
	for _, edge := range []float64{45, 50} {
		sys := systems.MultiGPUAt(edge)
		for _, gas := range []bool{false, true} {
			o := opt
			o.GasStation = gas
			res, err := cfg.place(sys, o)
			if err != nil {
				return nil, err
			}
			ctr.Merge(res.Metrics)
			link := "repeaterless"
			if gas {
				link = "gas-station"
			}
			label := fmt.Sprintf("%2.0f mm / %s", edge, link)
			results[label] = res
			rows = append(rows, Row{Label: label, TempC: res.PeakC, WirelengthMM: res.WirelengthMM})
		}
	}
	notes := []string{
		"paper: 50 mm gives 2.51 C lower T at +5% WL (repeaterless), 2.38 C lower at +17% WL (gas-station), at 33% higher interposer cost",
		fmt.Sprintf("measured interposer cost ratio 45 -> 50 mm: %+.0f%% (edge loss + defect yield model)",
			100*(interposercost.Default().Ratio(45, 45, 50, 50)-1)),
	}
	for _, link := range []string{"repeaterless", "gas-station"} {
		a := results["45 mm / "+link]
		b := results["50 mm / "+link]
		notes = append(notes, fmt.Sprintf("measured %s: dT = %.2f C, dWL = %+.0f%%",
			link, a.PeakC-b.PeakC, 100*(b.WirelengthMM-a.WirelengthMM)/a.WirelengthMM))
	}
	return &Report{
		ID:       "E2",
		Title:    "Multi-GPU interposer-size study (Section IV-A)",
		Rows:     rows,
		Notes:    notes,
		Counters: ctr,
		Elapsed:  time.Since(start),
	}, nil
}

// E3CPUDRAM regenerates Fig. 5: the CPU-DRAM system's original placement,
// Compact-2.5D, and the two TAP-2.5D variants.
func E3CPUDRAM(cfg Config) (*Report, error) {
	start := time.Now()
	sys := systems.CPUDRAM()
	opt := cfg.options()

	orig, err := tap25d.Evaluate(sys, systems.CPUDRAMOriginal(), opt)
	if err != nil {
		return nil, err
	}
	compact, err := tap25d.PlaceCompact(sys, opt)
	if err != nil {
		return nil, err
	}
	tapRL, err := cfg.place(sys, opt)
	if err != nil {
		return nil, err
	}
	optGas := opt
	optGas.GasStation = true
	tapGas, err := cfg.place(sys, optGas)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "E3",
		Title: "CPU-DRAM system (Fig. 5): original vs Compact-2.5D vs TAP-2.5D",
		Rows: []Row{
			{Label: "Original (a)", TempC: orig.PeakC, WirelengthMM: orig.WirelengthMM},
			{Label: "Compact-2.5D (b)", TempC: compact.PeakC, WirelengthMM: compact.WirelengthMM},
			{Label: "TAP-2.5D repeaterless (c)", TempC: tapRL.PeakC, WirelengthMM: tapRL.WirelengthMM},
			{Label: "TAP-2.5D gas-station (d)", TempC: tapGas.PeakC, WirelengthMM: tapGas.WirelengthMM},
		},
		Notes: []string{
			"paper: (a) 115.94 C / 67686 mm, (b) 113.54 C / 100864 mm, (c) 94.89 C / 216064 mm, (d) 93.89 C / 138956 mm",
			"shape: (a), (b) > 85 C infeasible; TAP ~20 C cooler at 2-3x the original wirelength",
		},
		Elapsed: time.Since(start),
	}
	mergeCounters(rep, orig, compact, tapRL, tapGas)
	return rep, nil
}

// E4TDP regenerates the Section IV-B TDP analysis: maximum system power at
// 85 C for the original CPU-DRAM placement vs the TAP-2.5D placement,
// varying the CPUs' power.
func E4TDP(cfg Config) (*Report, error) {
	start := time.Now()
	sys := systems.CPUDRAM()
	opt := cfg.options()

	origTDP, err := tap25d.TDPEnvelope(sys, systems.CPUDRAMOriginal(), systems.CPUDRAMCPUIndices(), opt)
	if err != nil {
		return nil, err
	}
	tapRes, err := cfg.place(sys, opt)
	if err != nil {
		return nil, err
	}
	tapTDP, err := tap25d.TDPEnvelope(sys, tapRes.Placement, systems.CPUDRAMCPUIndices(), opt)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "E4",
		Title: "CPU-DRAM TDP envelopes (Section IV-B)",
		Rows: []Row{
			{Label: "Original placement", Extra: map[string]float64{"TDP_W": origTDP.EnvelopeW, "peak_C": origTDP.PeakC}},
			{Label: "TAP-2.5D placement", Extra: map[string]float64{"TDP_W": tapTDP.EnvelopeW, "peak_C": tapTDP.PeakC}},
			{Label: "TDP gain", Extra: map[string]float64{"delta_W": tapTDP.EnvelopeW - origTDP.EnvelopeW}},
		},
		Notes: []string{
			"paper: original 400 W, TAP-2.5D 550 W (+150 W) under the 85 C constraint",
		},
		Elapsed: time.Since(start),
	}, nil
}

// E5LinkLatency regenerates the Section IV-B performance numbers over the
// synthetic PARSEC/SPLASH2/UHPC workloads.
func E5LinkLatency(cfg Config) (*Report, error) {
	start := time.Now()
	studies, err := tap25d.LinkLatencyStudy([]int{2, 3}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, st := range studies {
		rows = append(rows, Row{
			Label: fmt.Sprintf("link latency 1 -> %d cycles", st.LinkLatency),
			Extra: map[string]float64{
				"min_pct":  st.Min * 100,
				"max_pct":  st.Max * 100,
				"mean_pct": st.Mean * 100,
			},
		})
		names := make([]string, 0, len(st.PerWorkload))
		for n := range st.PerWorkload {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rows = append(rows, Row{
				Label: "  " + n,
				Extra: map[string]float64{"slowdown_pct": st.PerWorkload[n] * 100},
			})
		}
	}
	return &Report{
		ID:    "E5",
		Title: "Inter-chiplet link latency performance study (Section IV-B)",
		Rows:  rows,
		Notes: []string{
			"paper: 1->2 cycles: 5-18% loss (11% avg); 1->3 cycles: 18-39% loss (25% avg)",
		},
		Elapsed: time.Since(start),
	}, nil
}

// E6Ascend910 regenerates Fig. 6: the Ascend 910's commercial layout,
// Compact-2.5D, and TAP-2.5D.
func E6Ascend910(cfg Config) (*Report, error) {
	start := time.Now()
	sys := systems.Ascend910()
	opt := cfg.options()

	orig, err := tap25d.Evaluate(sys, systems.Ascend910Original(), opt)
	if err != nil {
		return nil, err
	}
	compact, err := tap25d.PlaceCompact(sys, opt)
	if err != nil {
		return nil, err
	}
	tapRes, err := cfg.place(sys, opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "E6",
		Title: "Huawei Ascend 910 (Fig. 6): original vs Compact-2.5D vs TAP-2.5D",
		Rows: []Row{
			{Label: "Original layout (a)", TempC: orig.PeakC, WirelengthMM: orig.WirelengthMM},
			{Label: "Compact-2.5D (b)", TempC: compact.PeakC, WirelengthMM: compact.WirelengthMM},
			{Label: "TAP-2.5D (c)", TempC: tapRes.PeakC, WirelengthMM: tapRes.WirelengthMM,
				Extra: map[string]float64{
					"similarity_to_original_mm": tap25d.PlacementSimilarity(sys, systems.Ascend910Original(), tapRes.Placement),
					"similarity_to_compact_mm":  tap25d.PlacementSimilarity(sys, compact.Placement, tapRes.Placement),
				}},
		},
		Notes: []string{
			"paper: (a) 75.48 C / 16426 mm, (b) 75.13 C / 23794 mm, (c) 75.47 C / 16597 mm",
			"shape: all below 85 C, so TAP-2.5D minimizes wirelength only and lands near the commercial layout",
			"similarity = mean per-chiplet displacement (mm) up to interposer symmetry; lower = more alike",
		},
		Elapsed: time.Since(start),
	}
	mergeCounters(rep, orig, compact, tapRes)
	return rep, nil
}

// E7Scaling regenerates the Section III-D scalability discussion: routing
// optimization time grows with |C|^2 |P|^2 |N| while thermal solve time is
// flat in chiplet count (fixed grid).
func E7Scaling(cfg Config) (*Report, error) {
	start := time.Now()
	var rows []Row
	for _, n := range []int{4, 8, 16, 32} {
		sys, p := syntheticSystem(n, cfg.Seed)
		t0 := time.Now()
		if _, err := route.Route(sys, p, route.Options{}); err != nil {
			return nil, err
		}
		routeMS := float64(time.Since(t0).Microseconds()) / 1000

		// Gas-station routing considers every chiplet as an intermediate, so
		// its cost exposes the O(|C|^2 |P|^2 |N|) growth clearly.
		t0 = time.Now()
		if _, err := route.Route(sys, p, route.Options{GasStation: true}); err != nil {
			return nil, err
		}
		gasMS := float64(time.Since(t0).Microseconds()) / 1000

		stack := material.DefaultStackFor(sys.InterposerW, sys.InterposerH)
		model, err := thermal.NewModel(sys.InterposerW, sys.InterposerH, thermal.Options{Grid: cfg.ThermalGrid, Stack: &stack})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := model.Solve(placer.Sources(sys, p)); err != nil {
			return nil, err
		}
		thermalMS := float64(time.Since(t1).Milliseconds())
		rows = append(rows, Row{
			Label: fmt.Sprintf("%2d chiplets, %2d channels", n, len(sys.Channels)),
			Extra: map[string]float64{"route_ms": routeMS, "route_gas_ms": gasMS, "thermal_ms": thermalMS},
		})
	}
	return &Report{
		ID:    "E7",
		Title: "Scalability (Section III-D): routing scales with system size, thermal is flat",
		Rows:  rows,
		Notes: []string{
			"paper: routing O(|C|^2 |P|^2 |N|); thermal constant (fixed 64x64 grid; 23 s/HotSpot call, 5 s/CPLEX call)",
		},
		Elapsed: time.Since(start),
	}, nil
}

// E8MILPvsFast validates the fast router against the exact MILP (Table I /
// Eqns. 1-9 sanity) on all three case studies.
func E8MILPvsFast(cfg Config) (*Report, error) {
	start := time.Now()
	cases := []struct {
		name string
		sys  *chiplet.System
		p    chiplet.Placement
	}{
		{"cpudram original", systems.CPUDRAM(), systems.CPUDRAMOriginal()},
		{"ascend910 original", systems.Ascend910(), systems.Ascend910Original()},
	}
	// Add a compact multigpu placement.
	mg := systems.MultiGPU()
	mgc, err := tap25d.PlaceCompact(mg, cfg.options())
	if err != nil {
		return nil, err
	}
	cases = append(cases, struct {
		name string
		sys  *chiplet.System
		p    chiplet.Placement
	}{"multigpu compact", mg, mgc.Placement})

	var rows []Row
	for _, c := range cases {
		fast, err := route.Route(c.sys, c.p, route.Options{Method: route.MethodFast})
		if err != nil {
			return nil, err
		}
		milp, err := route.Route(c.sys, c.p, route.Options{Method: route.MethodMILP, MILP: lp.MILPOptions{MaxNodes: 4000}})
		if err != nil {
			return nil, err
		}
		if err := route.Check(c.sys, fast, nil); err != nil {
			return nil, fmt.Errorf("E8: fast router constraint violation on %s: %w", c.name, err)
		}
		if err := route.Check(c.sys, milp, nil); err != nil {
			return nil, fmt.Errorf("E8: MILP constraint violation on %s: %w", c.name, err)
		}
		rows = append(rows, Row{
			Label: c.name,
			Extra: map[string]float64{
				"fast_mm": fast.TotalWirelengthMM,
				"milp_mm": milp.TotalWirelengthMM,
				"gap_pct": 100 * (fast.TotalWirelengthMM - milp.TotalWirelengthMM) / milp.TotalWirelengthMM,
			},
		})
	}
	return &Report{
		ID:      "E8",
		Title:   "Routing optimality: fast heuristic vs exact MILP (Eqns. 1-9)",
		Rows:    rows,
		Notes:   []string{"both methods must satisfy every constraint; the heuristic's wirelength gap should be ~0%"},
		Elapsed: time.Since(start),
	}, nil
}

// E9Ablations exercises the design choices the paper motivates: the jump
// operator (Section III-C3), the dynamic alpha (Eqn. 13), and the
// Compact-2.5D initial placement (Section III-C2), on the CPU-DRAM system.
func E9Ablations(cfg Config) (*Report, error) {
	start := time.Now()
	sys := systems.CPUDRAM()
	base := cfg.options()
	base.Runs = 1

	variants := []struct {
		label string
		mod   func(*tap25d.Options) error
	}{
		{"TAP-2.5D (full)", func(o *tap25d.Options) error { return nil }},
		{"no jump operator", func(o *tap25d.Options) error { o.DisableJump = true; return nil }},
		{"fixed alpha = 0.5", func(o *tap25d.Options) error { o.FixedAlpha = 0.5; return nil }},
		{"random initial placement", func(o *tap25d.Options) error {
			p, err := randomPlacement(sys, cfg.Seed)
			if err != nil {
				return err
			}
			o.InitialPlacement = &p
			return nil
		}},
	}
	var rows []Row
	var ctr metrics.Counters
	for _, v := range variants {
		o := base
		if err := v.mod(&o); err != nil {
			return nil, err
		}
		res, err := cfg.place(sys, o)
		if err != nil {
			return nil, err
		}
		ctr.Merge(res.Metrics)
		rows = append(rows, Row{Label: v.label, TempC: res.PeakC, WirelengthMM: res.WirelengthMM})
	}
	return &Report{
		ID:       "E9",
		Title:    "Ablations: jump operator, dynamic alpha, initial placement (CPU-DRAM)",
		Rows:     rows,
		Notes:    []string{"full TAP-2.5D should dominate or match every ablation at equal budget"},
		Counters: ctr,
		Elapsed:  time.Since(start),
	}, nil
}

// E10EndToEnd is the repo's extension experiment: it closes the paper's
// Section IV-B argument quantitatively. The TAP-2.5D placement of the
// CPU-DRAM system has longer wires, which the interposer wire model turns
// into multi-cycle links and the trace model into a slowdown; the same
// placement's higher TDP envelope funds a frequency uplift (power ~ f at
// fixed voltage). The net effect should be a performance *gain*, matching
// the paper's claim that the increased TDP envelope recovers the wirelength
// cost (e.g. "+30% operating frequency").
func E10EndToEnd(cfg Config) (*Report, error) {
	start := time.Now()
	sys := systems.CPUDRAM()
	opt := cfg.options()
	const clockGHz = 1.0

	orig, err := tap25d.Evaluate(sys, systems.CPUDRAMOriginal(), opt)
	if err != nil {
		return nil, err
	}
	// The spread TAP placement needs gas-station links: its longest
	// repeaterless wires would take ~10 cycles (quadratic RC delay), which
	// is exactly the failure mode the paper's 2-stage links avoid.
	optGas := opt
	optGas.GasStation = true
	tapRes, err := cfg.place(sys, optGas)
	if err != nil {
		return nil, err
	}
	tapRL, err := tap25d.Evaluate(sys, tapRes.Placement, opt) // same placement, repeaterless routing
	if err != nil {
		return nil, err
	}

	origTDP, err := tap25d.TDPEnvelope(sys, systems.CPUDRAMOriginal(), systems.CPUDRAMCPUIndices(), opt)
	if err != nil {
		return nil, err
	}
	tapTDP, err := tap25d.TDPEnvelope(sys, tapRes.Placement, systems.CPUDRAMCPUIndices(), opt)
	if err != nil {
		return nil, err
	}
	uplift := 0.0
	if origTDP.EnvelopeW > 0 && tapTDP.EnvelopeW > origTDP.EnvelopeW {
		uplift = tapTDP.EnvelopeW/origTDP.EnvelopeW - 1
	}

	rows := make([]Row, 0, 6)
	type point struct {
		label   string
		routing *tap25d.RouteResult
		uplift  float64
	}
	for _, pt := range []point{
		{"original (repeaterless)", orig.Routing, 0},
		{"TAP-2.5D (repeaterless)", tapRL.Routing, uplift},
		{"TAP-2.5D (gas-station)", tapRes.Routing, uplift},
	} {
		links, err := tap25d.AnalyzeLinks(pt.routing, clockGHz)
		if err != nil {
			return nil, err
		}
		impact, err := tap25d.AssessPerformance(pt.routing, clockGHz, pt.uplift, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Row{Label: pt.label + " links", Extra: map[string]float64{
				"mean_cycles": links.MeanCycles,
				"max_cycles":  float64(links.MaxCycles),
				"energy_pJ":   links.TotalEnergyPJPerTransfer,
			}},
			Row{Label: pt.label + " perf", Extra: map[string]float64{
				"slowdown_pct": impact.MeanSlowdown * 100,
				"uplift_pct":   pt.uplift * 100,
				"net_pct":      impact.NetSpeedup * 100,
			}},
		)
	}

	return &Report{
		ID:    "E10",
		Title: "End-to-end: wire delay -> link latency -> workload performance, with TDP-funded frequency (extension of Section IV-B)",
		Rows:  rows,
		Notes: []string{
			"paper (qualitative): longer links cost 11-25% at fixed frequency; the +150 W TDP envelope can fund ~+30% frequency, a net gain",
			"repeaterless routing of the spread placement shows why gas stations exist: its longest wires need many cycles",
		},
		Elapsed: time.Since(start),
	}, nil
}

// E11CompactCrossCheck compares the two independent compact floorplanners —
// B*-tree + fast-SA (the paper's Compact-2.5D, Chen et al. TCAD'06) and
// Sequence Pair (Murata et al. TCAD'96, the first representation Section II
// surveys) — on all three case studies. Two correct compact placers should
// land in the same temperature and wirelength regime, and both should be
// thermally inferior (or equal) to thermally-aware spreading.
func E11CompactCrossCheck(cfg Config) (*Report, error) {
	start := time.Now()
	opt := cfg.options()
	var rows []Row
	for _, name := range systems.Names() {
		sys, err := systems.ByName(name)
		if err != nil {
			return nil, err
		}
		bt, err := tap25d.PlaceCompact(sys, opt)
		if err != nil {
			return nil, err
		}
		sp, err := tap25d.PlaceCompactSeqPair(sys, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Row{Label: name + " / B*-tree", TempC: bt.PeakC, WirelengthMM: bt.WirelengthMM},
			Row{Label: name + " / seq-pair", TempC: sp.PeakC, WirelengthMM: sp.WirelengthMM},
		)
	}
	return &Report{
		ID:      "E11",
		Title:   "Compact-placer cross-check: B*-tree (Compact-2.5D) vs Sequence Pair",
		Rows:    rows,
		Notes:   []string{"independent representations should agree within the compact regime (sanity for the baseline)"},
		Elapsed: time.Since(start),
	}, nil
}

// E12CoolingTradeoff quantifies the paper's introductory argument: a
// thermally-infeasible compact design can be rescued either by "advanced but
// expensive cooling" (a microchannel liquid cold plate) or, for free, by
// thermally-aware placement. The experiment evaluates the CPU-DRAM original
// placement and a TAP-2.5D placement under both forced air and liquid
// cooling.
func E12CoolingTradeoff(cfg Config) (*Report, error) {
	start := time.Now()
	sys := systems.CPUDRAM()
	opt := cfg.options()
	lc := tap25d.LiquidCooling{} // defaults: 25 C inlet, 1 L/min, microchannel HTC

	origAir, err := tap25d.Evaluate(sys, systems.CPUDRAMOriginal(), opt)
	if err != nil {
		return nil, err
	}
	origLiq, err := tap25d.EvaluateLiquid(sys, systems.CPUDRAMOriginal(), lc, opt)
	if err != nil {
		return nil, err
	}
	tapRes, err := cfg.place(sys, opt)
	if err != nil {
		return nil, err
	}
	tapLiq, err := tap25d.EvaluateLiquid(sys, tapRes.Placement, lc, opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "E12",
		Title: "Cooling trade-off: thermally-aware placement vs expensive liquid cooling (intro argument)",
		Rows: []Row{
			{Label: "original + forced air", TempC: origAir.PeakC, WirelengthMM: origAir.WirelengthMM},
			{Label: "original + liquid plate", TempC: origLiq.PeakC, WirelengthMM: origLiq.WirelengthMM},
			{Label: "TAP-2.5D + forced air", TempC: tapRes.PeakC, WirelengthMM: tapRes.WirelengthMM},
			{Label: "TAP-2.5D + liquid plate", TempC: tapLiq.PeakC, WirelengthMM: tapLiq.WirelengthMM},
		},
		Notes: []string{
			"liquid cooling rescues the compact design without wirelength cost but adds pump/plate cost and plumbing;",
			"TAP-2.5D recovers most of the thermal headroom with the stock air cooler, which is the paper's core pitch",
		},
		Elapsed: time.Since(start),
	}
	mergeCounters(rep, origAir, tapRes)
	return rep, nil
}

// E13AlphaSweep maps the temperature-wirelength trade-off curve behind
// Eqn. (12) by fixing the weight alpha across a sweep (the dynamic Eqn. (13)
// policy picks its own point on this curve). Higher alpha buys temperature
// with wirelength; the dynamic policy should land near the knee.
func E13AlphaSweep(cfg Config) (*Report, error) {
	start := time.Now()
	sys := systems.CPUDRAM()
	base := cfg.options()
	base.Runs = 1

	var rows []Row
	var ctr metrics.Counters
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		o := base
		o.FixedAlpha = alpha
		res, err := cfg.place(sys, o)
		if err != nil {
			return nil, err
		}
		ctr.Merge(res.Metrics)
		rows = append(rows, Row{
			Label:        fmt.Sprintf("fixed alpha = %.1f", alpha),
			TempC:        res.PeakC,
			WirelengthMM: res.WirelengthMM,
		})
	}
	dyn, err := cfg.place(sys, base)
	if err != nil {
		return nil, err
	}
	ctr.Merge(dyn.Metrics)
	rows = append(rows, Row{Label: "dynamic alpha (Eqn. 13)", TempC: dyn.PeakC, WirelengthMM: dyn.WirelengthMM})
	return &Report{
		ID:       "E13",
		Title:    "Alpha sweep: the Eqn. 12 temperature-wirelength trade-off curve (extension)",
		Rows:     rows,
		Notes:    []string{"higher alpha trades wirelength for temperature; the dynamic policy picks its point by the thermal level"},
		Counters: ctr,
		Elapsed:  time.Since(start),
	}, nil
}

// syntheticSystem builds an n-chiplet system on a valid grid placement for
// the scaling study.
func syntheticSystem(n int, seed int64) (*chiplet.System, chiplet.Placement) {
	rng := rand.New(rand.NewSource(seed))
	sys := &chiplet.System{
		Name:              fmt.Sprintf("synthetic%d", n),
		InterposerW:       45,
		InterposerH:       45,
		PinsPerClumpLimit: 8192,
	}
	cols := 1
	for cols*cols < n {
		cols++
	}
	cell := 45.0 / float64(cols)
	die := cell - 2
	if die > 10 {
		die = 10
	}
	p := chiplet.NewPlacement(n)
	for i := 0; i < n; i++ {
		sys.Chiplets = append(sys.Chiplets, chiplet.Chiplet{
			Name:  fmt.Sprintf("C%d", i),
			W:     die,
			H:     die,
			Power: 20 + rng.Float64()*30,
		})
		r := i / cols
		c := i % cols
		p.Centers[i] = geom.Point{
			X: (float64(c) + 0.5) * cell,
			Y: (float64(r) + 0.5) * cell,
		}
	}
	// Ring plus a few chords: |N| grows with |C|.
	for i := 0; i < n; i++ {
		sys.Channels = append(sys.Channels, chiplet.Channel{Src: i, Dst: (i + 1) % n, Wires: 256})
	}
	for i := 0; i+cols < n; i += 2 {
		sys.Channels = append(sys.Channels, chiplet.Channel{Src: i, Dst: i + cols, Wires: 128})
	}
	return sys, p
}

// randomPlacement produces a valid random placement by jumping each chiplet
// to a random valid OCM node starting from a legalized compact placement.
// Failures (a system no OCM grid can host, an unlegalizable park position)
// surface as errors so a malformed ablation input fails its experiment
// cleanly instead of panicking the campaign.
func randomPlacement(sys *chiplet.System, seed int64) (chiplet.Placement, error) {
	grid, err := ocm.NewGrid(sys, 0)
	if err != nil {
		return chiplet.Placement{}, fmt.Errorf("experiments: random placement for %s: %w", sys.Name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	// Start from corners-out greedy: place chiplets one by one at random
	// valid nodes (checking only already-placed ones).
	p := chiplet.NewPlacement(len(sys.Chiplets))
	// Park everyone off to a known-valid arrangement first: legalize a
	// diagonal spread.
	for i := range p.Centers {
		p.Centers[i] = geom.Point{X: 1, Y: 1}
	}
	q, err := grid.Legalize(sys, p)
	if err != nil {
		return chiplet.Placement{}, fmt.Errorf("experiments: random placement for %s: %w", sys.Name, err)
	}
	for i := range q.Centers {
		if pt, ok := grid.RandomValidPosition(sys, q, i, rng); ok {
			q.Centers[i] = pt
		}
	}
	return q, nil
}
