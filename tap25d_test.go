package tap25d

import (
	"bytes"
	"strings"
	"testing"
)

// fastOpt keeps facade tests quick: coarse grid, few steps.
func fastOpt() Options {
	return Options{ThermalGrid: 16, Steps: 60, CompactSteps: 2000, Seed: 1}
}

func TestBuiltinSystems(t *testing.T) {
	names := BuiltinSystemNames()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		sys, err := BuiltinSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := BuiltinSystem("bogus"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestLoadSystem(t *testing.T) {
	const js = `{
		"name": "mini", "interposer_w": 30, "interposer_h": 30,
		"chiplets": [
			{"name": "A", "w": 8, "h": 8, "power": 80},
			{"name": "B", "w": 6, "h": 6, "power": 10}
		],
		"channels": [{"src": 0, "dst": 1, "wires": 128}]
	}`
	sys, err := LoadSystem(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "mini" || len(sys.Chiplets) != 2 {
		t.Errorf("decoded: %+v", sys)
	}
	if _, err := LoadSystem(strings.NewReader(`{"name":"x"}`)); err == nil {
		t.Error("invalid system loaded")
	}
}

func TestEvaluateOriginalPlacements(t *testing.T) {
	sys, _ := BuiltinSystem("cpudram")
	res, err := Evaluate(sys, CPUDRAMOriginalPlacement(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakC <= 85 {
		t.Errorf("CPU-DRAM original should be thermally infeasible, got %.1f C", res.PeakC)
	}
	if res.Feasible {
		t.Error("Feasible flag wrong")
	}
	if res.WirelengthMM <= 0 || res.Thermal == nil || res.Routing == nil {
		t.Error("result incomplete")
	}

	as, _ := BuiltinSystem("ascend910")
	resA, err := Evaluate(as, Ascend910OriginalPlacement(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Feasible {
		t.Errorf("Ascend 910 original should be feasible, got %.1f C", resA.PeakC)
	}
}

func TestEvaluateRejectsBadInput(t *testing.T) {
	sys, _ := BuiltinSystem("cpudram")
	bad := CPUDRAMOriginalPlacement()
	bad.Centers[0] = bad.Centers[1]
	if _, err := Evaluate(sys, bad, fastOpt()); err == nil {
		t.Error("overlapping placement evaluated")
	}
}

func TestPlaceCompactFlow(t *testing.T) {
	sys, _ := BuiltinSystem("multigpu")
	res, err := PlaceCompact(sys, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
	if res.PeakC < 60 || res.WirelengthMM <= 0 {
		t.Errorf("implausible metrics: %.1f C, %.0f mm", res.PeakC, res.WirelengthMM)
	}
}

// TestPlaceLegalizesEveryRunStart: run 1 of this flow (seed 5) starts from
// a Compact-2.5D packing that only Legalize's corner pass can put on the
// grid; without it the run fails and the flow errors or drops the run.
func TestPlaceLegalizesEveryRunStart(t *testing.T) {
	sys, _ := BuiltinSystem("cpudram")
	res, err := Place(sys, Options{ThermalGrid: 16, Steps: 2, Runs: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceFlowImprovesTemperature(t *testing.T) {
	sys, _ := BuiltinSystem("cpudram")
	opt := fastOpt()
	// Enough annealing budget to escape the initial random-walk phase: the
	// best-seen tracking uses the Eqn. 12 cost, so the compact initial
	// placement is only displaced once the search finds a genuinely
	// better-balanced solution.
	opt.Steps = 400
	res, err := Place(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
	// The compact initial placement of the CPU-DRAM system is far above
	// 85 C; the annealer must improve it even with a small budget.
	if res.PeakC >= res.InitialPeakC {
		t.Errorf("peak %.2f C did not improve on initial %.2f C", res.PeakC, res.InitialPeakC)
	}
	if res.Routing == nil || CheckRouting(sys, res.Routing) != nil {
		t.Error("final routing missing or invalid")
	}
}

func TestPlaceWithHistoryAndExactRouting(t *testing.T) {
	sys, _ := BuiltinSystem("ascend910")
	opt := fastOpt()
	opt.Steps = 30
	opt.History = true
	opt.ExactRouting = true
	res, err := Place(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Error("history not recorded")
	}
	if res.Routing.Method.String() != "milp" {
		t.Errorf("final routing method = %v, want milp", res.Routing.Method)
	}
}

func TestTDPEnvelopeOrdering(t *testing.T) {
	sys, _ := BuiltinSystem("cpudram")
	opt := fastOpt()
	// Original (compact CPUs) vs a hand-spread placement.
	orig, err := TDPEnvelope(sys, CPUDRAMOriginalPlacement(), CPUDRAMCPUIndices(), opt)
	if err != nil {
		t.Fatal(err)
	}
	spread := CPUDRAMOriginalPlacement()
	spread.Centers[0] = Point{X: 7, Y: 7}
	spread.Centers[1] = Point{X: 38, Y: 7}
	spread.Centers[2] = Point{X: 38, Y: 38}
	spread.Centers[3] = Point{X: 7, Y: 38}
	spread.Centers[4] = Point{X: 20, Y: 7}
	spread.Centers[5] = Point{X: 38, Y: 20.6}
	spread.Centers[6] = Point{X: 24.4, Y: 38}
	spread.Centers[7] = Point{X: 7, Y: 20.6}
	sp, err := TDPEnvelope(sys, spread, CPUDRAMCPUIndices(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Feasible || !sp.Feasible {
		t.Fatalf("envelopes infeasible: %+v %+v", orig, sp)
	}
	if sp.EnvelopeW <= orig.EnvelopeW {
		t.Errorf("spread TDP %.0f W not above original %.0f W", sp.EnvelopeW, orig.EnvelopeW)
	}
}

func TestLinkLatencyStudyFacade(t *testing.T) {
	studies, err := LinkLatencyStudy([]int{2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 2 {
		t.Fatalf("studies = %d", len(studies))
	}
	if studies[0].Mean <= 0 || studies[1].Mean <= studies[0].Mean {
		t.Errorf("means not increasing: %v %v", studies[0].Mean, studies[1].Mean)
	}
	if len(PerfWorkloads()) < 10 {
		t.Error("too few workloads")
	}
}

func TestRenderingFacade(t *testing.T) {
	sys, _ := BuiltinSystem("ascend910")
	res, err := Evaluate(sys, Ascend910OriginalPlacement(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	art := ThermalASCII(sys, res, 60)
	if !strings.Contains(art, "peak") {
		t.Error("thermal ASCII missing header")
	}
	fp := PlacementASCII(sys, res.Placement, 60)
	if !strings.Contains(fp, "V") { // Virtuvian
		t.Error("floorplan missing chiplet letter")
	}
	var buf bytes.Buffer
	if err := WriteThermalPPM(&buf, res, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n")) {
		t.Error("not a PPM")
	}
	// No thermal data paths.
	empty := &Result{}
	if ThermalASCII(sys, empty, 10) == "" {
		t.Error("empty result should render a placeholder")
	}
	if WriteThermalPPM(&buf, empty, 1) == nil {
		t.Error("empty result should fail PPM write")
	}
}
