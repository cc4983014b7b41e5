package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tap25d"
)

// flowSpec defines one placement-flow workload: a paper case study placed by
// the full TAP-2.5D flow and then screened at eight power corners.
type flowSpec struct {
	name      string
	why       string
	system    string
	grid      int
	surrogate bool
	runs      int
	steps     int
	// ckptEvery is the periodic checkpoint cadence in SA steps, written to an
	// on-disk tap25d.CheckpointStore; 0 disables checkpoints.
	ckptEvery int
	// seeds is the pool the flows' placement seeds are drawn from.
	seeds []int64
	// flowSecs sizes a run: --seconds/flowSecs flows, rounded, at least one.
	flowSecs float64
}

// cornerScales are the whole-system power corners every final placement is
// screened at with one batched tap25d.EvaluateScenarios call.
var cornerScales = []float64{0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4}

// nominalCorner indexes the 1.0× corner of cornerScales.
const nominalCorner = 3

func e1Spec() flowSpec {
	return flowSpec{
		name: "e1-surrogate-g64",
		why: "paper E1 at grid 64 (auto picks Jacobi) with the surrogate on and 2 parallel runs: " +
			"the placer loop, the surrogate prescreen and Jacobi CG all show",
		system: "multigpu", grid: 64, surrogate: true, runs: 2, steps: 120, ckptEvery: 40,
		seeds: e1Seeds, flowSecs: 4,
	}
}

func cpudramSpec() flowSpec {
	return flowSpec{
		name: "cpudram-exact-g128",
		why: "paper E3 at grid 128 (auto picks multigrid), surrogate off, 1 run, 8-corner screen: " +
			"the solver does almost all the work",
		system: "cpudram", grid: 128, surrogate: false, runs: 1, steps: 16,
		seeds: cpudramSeeds, flowSecs: 6,
	}
}

func (f flowSpec) workload() workload {
	return workload{name: f.name, why: f.why, setupOnce: f.setupOnce, measure: f.measure, trace: f.trace}
}

// flows is the number of flows one run of secs seconds measures.
func (f flowSpec) flows(secs float64) int {
	n := int(secs/f.flowSecs + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

func (f flowSpec) options(seed int64) tap25d.Options {
	return tap25d.Options{ThermalGrid: f.grid, Steps: f.steps, Runs: f.runs, Seed: seed, Surrogate: f.surrogate}
}

// setupOnce times the first tap25d.PlaceCompact of the process: the compact
// floorplan, the thermal model build, the first cold solve and, at multigrid
// grids, the hierarchy build.
func (f flowSpec) setupOnce(seed int64, _ string) (float64, error) {
	sys, err := tap25d.BuiltinSystem(f.system)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = tap25d.PlaceCompact(sys, tap25d.Options{ThermalGrid: f.grid, Seed: pick(f.seeds, seed, 1)[0]})
	return time.Since(t0).Seconds(), err
}

// flowRun is one untraced flow: the placement and its corner screen.
type flowRun struct {
	res     *tap25d.Result
	place   time.Duration
	corners time.Duration
	peaks   []float64
}

// placeFlow runs tap25d.Place and the corner screen, untraced.
func (f flowSpec) placeFlow(sys *tap25d.System, seed int64, dir string) (*flowRun, error) {
	opt := f.options(seed)
	if f.ckptEvery > 0 {
		ckdir := filepath.Join(dir, fmt.Sprintf("ckpt-%d", seed))
		defer os.RemoveAll(ckdir)
		store := &tap25d.CheckpointStore{Dir: ckdir}
		opt.CheckpointEvery = f.ckptEvery
		opt.Checkpoint = store.Checkpoint
	}
	// Collect the previous call's garbage first, so each call's peak memory
	// starts from the same floor.
	runtime.GC()
	t0 := time.Now()
	res, err := tap25d.Place(sys, opt)
	place := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	peaks, corners, err := f.screen(sys, res.Placement, nil)
	if err != nil {
		return nil, err
	}
	return &flowRun{res: res, place: place, corners: corners, peaks: peaks}, nil
}

// screen evaluates placement p at every corner of cornerScales.
func (f flowSpec) screen(sys *tap25d.System, p tap25d.Placement, o *tap25d.Observer) ([]float64, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	fields, err := tap25d.EvaluateScenarios(sys, p, cornerScales, tap25d.Options{ThermalGrid: f.grid, Observer: o})
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("corner screen: %w", err)
	}
	peaks := make([]float64, len(fields))
	for c, r := range fields {
		peaks[c] = r.PeakC
	}
	return peaks, d, nil
}

// check is the correctness gate of one flow: the placement is legal, its
// routing meets the paper's constraints, its reported metrics equal a fresh
// tap25d.Evaluate, and the corner peaks rise with power with the 1.0× corner
// equal to the nominal peak.
func (f flowSpec) check(sys *tap25d.System, fr *flowRun) error {
	res := fr.res
	if res.Interrupted {
		return errors.New("flow was interrupted")
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	if err := tap25d.CheckRouting(sys, res.Routing); err != nil {
		return fmt.Errorf("routing: %w", err)
	}
	// The check's own model must not set the peak memory of the run.
	runtime.GC()
	fresh, err := tap25d.Evaluate(sys, res.Placement, tap25d.Options{ThermalGrid: f.grid})
	if err != nil {
		return fmt.Errorf("fresh evaluate: %w", err)
	}
	if fresh.PeakC != res.PeakC || fresh.WirelengthMM != res.WirelengthMM {
		return fmt.Errorf("reported %v C / %v mm, fresh evaluate gives %v C / %v mm",
			res.PeakC, res.WirelengthMM, fresh.PeakC, fresh.WirelengthMM)
	}
	return checkCorners(fr.peaks, res.PeakC)
}

// checkCorners verifies a corner screen against the nominal peak.
func checkCorners(peaks []float64, nominal float64) error {
	if len(peaks) != len(cornerScales) {
		return fmt.Errorf("corner screen returned %d peaks, want %d", len(peaks), len(cornerScales))
	}
	for c, p := range peaks {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("corner %v× peak is %v", cornerScales[c], p)
		}
		if c > 0 && !(p > peaks[c-1]) {
			return fmt.Errorf("corner %v× peak %v C does not exceed the %v× peak %v C",
				cornerScales[c], p, cornerScales[c-1], peaks[c-1])
		}
	}
	if peaks[nominalCorner] != nominal {
		return fmt.Errorf("1.0× corner peak %v C differs from the nominal peak %v C", peaks[nominalCorner], nominal)
	}
	return nil
}

// measure is the untraced run: set-up in fresh processes, then the run's
// flows, each checked.
func (f flowSpec) measure(cfg runConfig, t *tally) (metrics, error) {
	sys, err := tap25d.BuiltinSystem(f.system)
	if err != nil {
		return nil, err
	}
	setup, err := medianSetup(cfg, t)
	if err != nil {
		return nil, err
	}
	var rates, peaks, corners []float64
	var place time.Duration
	for k, seed := range pick(f.seeds, cfg.seed, f.flows(cfg.seconds)) {
		fr, err := f.placeFlow(sys, seed, cfg.dir)
		if err == nil {
			err = f.check(sys, fr)
		}
		t.record(fmt.Sprintf("flow %d", k), err)
		if err != nil {
			continue
		}
		fmt.Printf("flow %d seed %d: place %.3f s, corners %.3f s, %.4f C, %.0f mm, %s\n", k, seed,
			fr.place.Seconds(), fr.corners.Seconds(), fr.res.PeakC, fr.res.WirelengthMM, fr.res.Metrics)
		rates = append(rates, float64(f.steps*f.runs)/fr.place.Seconds())
		place += fr.place
		peaks = append(peaks, fr.res.PeakC)
		corners = append(corners, fr.corners.Seconds())
	}
	if len(rates) == 0 {
		return nil, errors.New("no flow completed")
	}
	printSamples("flow_steps_per_s", rates)
	printSamples("corners_s", corners)
	// Steps over the summed wall clock of tap25d.Place: every step, the
	// compact start and the final evaluation count at their cost.
	rate := float64(f.steps*f.runs*len(rates)) / place.Seconds()
	m := metrics{}
	m.set("sa_steps_per_s", rate, "1/s")
	m.set("peak_c", median(peaks), "C")
	m.set("setup_s", setup, "s")
	m.set("corners_s", median(corners), "s")
	m.set("rss_mb", peakRSSMB(), "MB")
	return m, nil
}

// trace is the traced run: each traced flow is preceded by the untraced flow
// of the same seed, which it must reproduce bit for bit and whose wall clock
// gives the tracing overhead.
func (f flowSpec) trace(cfg runConfig, t *tally) (metrics, error) {
	sys, err := tap25d.BuiltinSystem(f.system)
	if err != nil {
		return nil, err
	}
	n := f.flows(cfg.seconds) / 2
	if n < 1 {
		n = 1
	}
	var b breakdown
	for k, seed := range pick(f.seeds, cfg.seed, n) {
		fr, err := f.placeFlow(sys, seed, cfg.dir)
		if err == nil {
			err = f.check(sys, fr)
		}
		t.record(fmt.Sprintf("flow %d", k), err)
		if err != nil {
			continue
		}
		tr, err := f.tracedFlow(sys, seed, cfg.dir)
		if err == nil {
			err = sameOutcome(fr, tr)
		}
		t.record(fmt.Sprintf("traced flow %d", k), err)
		if err != nil {
			continue
		}
		b.addFlow(f, fr, tr)
	}
	if b.flows == 0 {
		return nil, errors.New("no traced flow completed")
	}
	return b.metrics(t), nil
}
