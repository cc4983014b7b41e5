package tap25d

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestAnalyzeLinks(t *testing.T) {
	sys, _ := BuiltinSystem("cpudram")
	res, err := Evaluate(sys, CPUDRAMOriginalPlacement(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	links, err := AnalyzeLinks(res.Routing, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range links.CyclesHistogram {
		total += n
	}
	if total != sys.TotalWires() {
		t.Errorf("classified %d wires, system has %d", total, sys.TotalWires())
	}
	if links.MeanCycles < 1 {
		t.Errorf("mean cycles %v < 1", links.MeanCycles)
	}
	if links.TotalEnergyPJPerTransfer <= 0 {
		t.Error("zero link energy")
	}
	// Faster clock can only worsen (or keep) the latency classes.
	fast, err := AnalyzeLinks(res.Routing, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeanCycles < links.MeanCycles {
		t.Errorf("2 GHz mean cycles %v below 1 GHz %v", fast.MeanCycles, links.MeanCycles)
	}
	if _, err := AnalyzeLinks(nil, 1); err == nil {
		t.Error("nil routing accepted")
	}
}

func TestAssessPerformance(t *testing.T) {
	sys, _ := BuiltinSystem("cpudram")
	res, err := Evaluate(sys, CPUDRAMOriginalPlacement(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	imp, err := AssessPerformance(res.Routing, 1.0, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if imp.MeanSlowdown < 0 {
		t.Errorf("negative slowdown %v", imp.MeanSlowdown)
	}
	if imp.FrequencyUplift != 0.3 {
		t.Errorf("uplift = %v", imp.FrequencyUplift)
	}
	want := (1+0.3)/(1+imp.MeanSlowdown) - 1
	if math.Abs(imp.NetSpeedup-want) > 1e-12 {
		t.Errorf("net speedup arithmetic: %v vs %v", imp.NetSpeedup, want)
	}
	empty := &RouteResult{}
	if _, err := AssessPerformance(empty, 1, 0, 1); err == nil {
		t.Error("empty routing accepted")
	}
}

func TestTransientFacade(t *testing.T) {
	sys, _ := BuiltinSystem("ascend910")
	p := Ascend910OriginalPlacement()
	tr, err := Transient(sys, p, 0.05, 20, Options{ThermalGrid: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.TimesS) != 20 || len(tr.PeakC) != 20 {
		t.Fatalf("trace lengths: %d, %d", len(tr.TimesS), len(tr.PeakC))
	}
	last := tr.PeakC[len(tr.PeakC)-1]
	if last <= tr.PeakC[0] {
		t.Errorf("no heating: %v -> %v", tr.PeakC[0], last)
	}
	if last > tr.SteadyPeakC+1 {
		t.Errorf("transient %v overshoots steady %v", last, tr.SteadyPeakC)
	}
	// Errors: invalid placement.
	bad := p.Clone()
	bad.Centers[0] = bad.Centers[1]
	if _, err := Transient(sys, bad, 0.05, 5, Options{ThermalGrid: 16}); err == nil {
		t.Error("invalid placement accepted")
	}
	if _, err := Transient(sys, p, -1, 5, Options{ThermalGrid: 16}); err == nil {
		t.Error("negative dt accepted")
	}
}

// TestTransientHonoursContext: a canceled Options.Context stops a long
// transient promptly with context.Canceled instead of running every step.
func TestTransientHonoursContext(t *testing.T) {
	sys, _ := BuiltinSystem("ascend910")
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := Transient(sys, Ascend910OriginalPlacement(), 0.001, 1_000_000, Options{ThermalGrid: 32, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("canceled transient returned after %v", d)
	}
}

func TestDefaultWireFacade(t *testing.T) {
	w := DefaultWire()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.ReachMM(1) <= 0 {
		t.Error("no reach at 1 GHz")
	}
}
