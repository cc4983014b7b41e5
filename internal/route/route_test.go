package route

import (
	"math"
	"strings"
	"testing"

	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
)

// lineSystem: two 10x10 chiplets side by side with one 100-wire channel.
func lineSystem() (*chiplet.System, chiplet.Placement) {
	sys := &chiplet.System{
		Name:        "line",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 10, H: 10, Power: 10},
			{Name: "B", W: 10, H: 10, Power: 10},
		},
		Channels: []chiplet.Channel{{Src: 0, Dst: 1, Wires: 100}},
	}
	p := chiplet.NewPlacement(2)
	p.Centers[0] = geom.Point{X: 10, Y: 22}
	p.Centers[1] = geom.Point{X: 30, Y: 22}
	return sys, p
}

// triSystem: three chiplets in a row; A-C channel can profit from a
// gas-station through B.
func triSystem(wires int) (*chiplet.System, chiplet.Placement) {
	sys := &chiplet.System{
		Name:        "tri",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 8, H: 8, Power: 10},
			{Name: "B", W: 8, H: 8, Power: 10},
			{Name: "C", W: 8, H: 8, Power: 10},
		},
		Channels:          []chiplet.Channel{{Src: 0, Dst: 2, Wires: wires}},
		PinsPerClumpLimit: 4096,
	}
	p := chiplet.NewPlacement(3)
	p.Centers[0] = geom.Point{X: 8, Y: 22}
	p.Centers[1] = geom.Point{X: 22, Y: 22}
	p.Centers[2] = geom.Point{X: 36, Y: 22}
	return sys, p
}

func TestClumpPoint(t *testing.T) {
	sys, p := lineSystem()
	// Chiplet 0 at (10, 22), 10x10.
	cases := []struct {
		clump int
		want  geom.Point
	}{
		{EdgeEast, geom.Point{X: 15, Y: 22}},
		{EdgeNorth, geom.Point{X: 10, Y: 27}},
		{EdgeWest, geom.Point{X: 5, Y: 22}},
		{EdgeSouth, geom.Point{X: 10, Y: 17}},
	}
	for _, c := range cases {
		if got := ClumpPoint(sys, p, 0, c.clump); got != c.want {
			t.Errorf("clump %d = %v, want %v", c.clump, got, c.want)
		}
	}
	// Rotation swaps the edges' distances from center.
	p.Rotated[0] = true
	sys.Chiplets[0].H = 4
	east := ClumpPoint(sys, p, 0, EdgeEast)
	if east.X != 12 { // rotated: width becomes 4
		t.Errorf("rotated east clump = %v", east)
	}
}

func TestClumpPointPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sys, p := lineSystem()
	ClumpPoint(sys, p, 0, 4)
}

func TestDerivedPinCapacity(t *testing.T) {
	sys, _ := lineSystem()
	caps := DerivedPinCapacity(sys)
	if caps[0] != 50 || caps[1] != 50 {
		t.Errorf("caps = %v, want [50 50]", caps)
	}
	sys.PinsPerClumpLimit = 999
	caps = DerivedPinCapacity(sys)
	if caps[0] != 999 || caps[1] != 999 {
		t.Errorf("explicit caps = %v", caps)
	}
}

func TestFastRouteDirect(t *testing.T) {
	sys, p := lineSystem()
	res, err := Route(sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sys, res, nil); err != nil {
		t.Fatal(err)
	}
	// Facing-edge distance is 30-10-10 = 10 mm; with per-clump capacity 50
	// the cheapest 50 wires go east->west (10 mm each) and the rest take the
	// next-cheapest clump pairs.
	if res.TotalWirelengthMM < 100*10 {
		t.Errorf("wirelength %v below physical minimum", res.TotalWirelengthMM)
	}
	if res.Method != MethodFast || res.GasStation {
		t.Errorf("result metadata wrong: %+v", res)
	}
}

func TestFastRouteRespectsCapacity(t *testing.T) {
	sys, p := lineSystem()
	res, err := Route(sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	use := map[int]int{}
	for _, f := range res.Flows {
		use[f.FromChiplet*4+f.FromClump] += f.Wires
		use[f.ToChiplet*4+f.ToClump] += f.Wires
	}
	for id, u := range use {
		if u > 50 {
			t.Errorf("clump %d used %d pins, cap 50", id, u)
		}
	}
}

func TestRouteRejectsInvalidPlacement(t *testing.T) {
	sys, p := lineSystem()
	p.Centers[1] = p.Centers[0] // overlap
	if _, err := Route(sys, p, Options{}); err == nil {
		t.Error("overlapping placement routed without error")
	}
}

func TestRouteInsufficientCapacity(t *testing.T) {
	sys, p := lineSystem()
	sys.PinsPerClumpLimit = 10
	_, err := Route(sys, p, Options{})
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("err = %v, want capacity error", err)
	}
}

func TestMILPMatchesFastOnSimpleCase(t *testing.T) {
	sys, p := lineSystem()
	fast, err := Route(sys, p, Options{Method: MethodFast})
	if err != nil {
		t.Fatal(err)
	}
	milp, err := Route(sys, p, Options{Method: MethodMILP})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sys, milp, nil); err != nil {
		t.Fatal(err)
	}
	// MILP is exact; fast must not beat it, and here they should coincide.
	if milp.TotalWirelengthMM > fast.TotalWirelengthMM+1e-6 {
		t.Errorf("milp %v worse than fast %v", milp.TotalWirelengthMM, fast.TotalWirelengthMM)
	}
	if math.Abs(milp.TotalWirelengthMM-fast.TotalWirelengthMM) > 1e-6 {
		t.Errorf("milp %v != fast %v on the trivial instance", milp.TotalWirelengthMM, fast.TotalWirelengthMM)
	}
}

func TestGasStationNeverWorseThanDirect(t *testing.T) {
	// With generous pins, gas-station routing can only shorten wirelength
	// (direct arcs remain available).
	sys, p := triSystem(64)
	direct, err := Route(sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gas, err := Route(sys, p, Options{GasStation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sys, gas, nil); err != nil {
		t.Fatal(err)
	}
	if gas.TotalWirelengthMM > direct.TotalWirelengthMM+1e-6 {
		t.Errorf("gas %v worse than direct %v", gas.TotalWirelengthMM, direct.TotalWirelengthMM)
	}
}

func TestGasStationUsesIntermediateWhenCheaper(t *testing.T) {
	// A->C facing-edge distance is 36-8-8-8... direct east(A)->west(C):
	// |32-12| = 20 mm. Via B: east(A)->west(B) 6 mm + east(B)->west(C) 6 mm
	// = 12 mm. The Manhattan distance is the same for straight-line hops,
	// so check the router actually finds the shorter 2-hop decomposition
	// when clump geometry makes it shorter.
	sys, p := triSystem(64)
	gas, err := Route(sys, p, Options{GasStation: true, Method: MethodMILP})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sys, gas, nil); err != nil {
		t.Fatal(err)
	}
	viaB := false
	for _, f := range gas.Flows {
		if f.FromChiplet == 1 || f.ToChiplet == 1 {
			viaB = true
		}
	}
	// Direct A->C east-west is 20 mm; via B is 6+6=12 mm. MILP must route
	// through B.
	if !viaB {
		t.Error("MILP gas-station routing did not use the cheaper intermediate")
	}
	if gas.TotalWirelengthMM > 64*12+1e-6 {
		t.Errorf("gas wirelength %v, want <= %v", gas.TotalWirelengthMM, 64*12)
	}
}

func TestMILPvsFastGasStation(t *testing.T) {
	sys, p := triSystem(32)
	fast, err := Route(sys, p, Options{GasStation: true, Method: MethodFast})
	if err != nil {
		t.Fatal(err)
	}
	milp, err := Route(sys, p, Options{GasStation: true, Method: MethodMILP})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sys, fast, nil); err != nil {
		t.Fatalf("fast: %v", err)
	}
	if err := Check(sys, milp, nil); err != nil {
		t.Fatalf("milp: %v", err)
	}
	if milp.TotalWirelengthMM > fast.TotalWirelengthMM+1e-6 {
		t.Errorf("exact milp %v worse than heuristic %v", milp.TotalWirelengthMM, fast.TotalWirelengthMM)
	}
}

func TestMultiNetSharedCapacity(t *testing.T) {
	// Two nets share chiplet B's pins; both must be delivered within caps.
	sys := &chiplet.System{
		Name:        "Y",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 8, H: 8, Power: 1},
			{Name: "B", W: 8, H: 8, Power: 1},
			{Name: "C", W: 8, H: 8, Power: 1},
		},
		Channels: []chiplet.Channel{
			{Src: 0, Dst: 1, Wires: 60},
			{Src: 2, Dst: 1, Wires: 60},
		},
	}
	p := chiplet.NewPlacement(3)
	p.Centers[0] = geom.Point{X: 8, Y: 10}
	p.Centers[1] = geom.Point{X: 22, Y: 10}
	p.Centers[2] = geom.Point{X: 36, Y: 10}

	for _, m := range []Method{MethodFast, MethodMILP} {
		res, err := Route(sys, p, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := Check(sys, res, nil); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestCheckCatchesViolations(t *testing.T) {
	sys, p := lineSystem()
	res, err := Route(sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: drop a flow -> delivery violated.
	bad := *res
	bad.Flows = bad.Flows[:len(bad.Flows)-1]
	if Check(sys, &bad, nil) == nil {
		t.Error("Check accepted under-delivery")
	}
	// Tamper: reverse a flow -> inflow to source.
	bad2 := *res
	bad2.Flows = append([]Flow{}, res.Flows...)
	f := bad2.Flows[0]
	f.FromChiplet, f.ToChiplet = f.ToChiplet, f.FromChiplet
	bad2.Flows[0] = f
	if Check(sys, &bad2, nil) == nil {
		t.Error("Check accepted reversed flow")
	}
	// Tamper: zero-wire flow.
	bad3 := *res
	bad3.Flows = append([]Flow{{Net: 0, Wires: 0}}, res.Flows...)
	if Check(sys, &bad3, nil) == nil {
		t.Error("Check accepted zero-wire flow")
	}
	// Tamper: unknown net.
	bad4 := *res
	bad4.Flows = append([]Flow{{Net: 5, Wires: 1}}, res.Flows...)
	if Check(sys, &bad4, nil) == nil {
		t.Error("Check accepted unknown net")
	}
}

func TestMethodString(t *testing.T) {
	if MethodFast.String() != "fast" || MethodMILP.String() != "milp" {
		t.Error("method strings wrong")
	}
	if Method(7).String() == "" {
		t.Error("unknown method should format")
	}
}

func TestWirelengthScalesWithSeparation(t *testing.T) {
	sys, p := lineSystem()
	near, err := Route(sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Centers[1] = geom.Point{X: 38, Y: 22}
	far, err := Route(sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if far.TotalWirelengthMM <= near.TotalWirelengthMM {
		t.Errorf("farther placement should have longer wires: %v vs %v",
			far.TotalWirelengthMM, near.TotalWirelengthMM)
	}
}

func BenchmarkFastRoute8Chiplets(b *testing.B) {
	sys, p := benchSystem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(sys, p, Options{GasStation: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMILPRoute8Chiplets(b *testing.B) {
	sys, p := benchSystem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(sys, p, Options{Method: MethodMILP}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSystem: an 8-chiplet system shaped like the paper's case studies.
func benchSystem() (*chiplet.System, chiplet.Placement) {
	sys := &chiplet.System{
		Name:        "bench8",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "C0", W: 10, H: 10, Power: 100},
			{Name: "C1", W: 10, H: 10, Power: 100},
			{Name: "C2", W: 10, H: 10, Power: 100},
			{Name: "C3", W: 10, H: 10, Power: 100},
			{Name: "D0", W: 6, H: 6, Power: 10},
			{Name: "D1", W: 6, H: 6, Power: 10},
			{Name: "D2", W: 6, H: 6, Power: 10},
			{Name: "D3", W: 6, H: 6, Power: 10},
		},
		Channels: []chiplet.Channel{
			{Src: 0, Dst: 1, Wires: 768}, {Src: 1, Dst: 2, Wires: 768},
			{Src: 2, Dst: 3, Wires: 768}, {Src: 3, Dst: 0, Wires: 768},
			{Src: 0, Dst: 4, Wires: 512}, {Src: 1, Dst: 5, Wires: 512},
			{Src: 2, Dst: 6, Wires: 512}, {Src: 3, Dst: 7, Wires: 512},
		},
	}
	p := chiplet.NewPlacement(8)
	coords := []geom.Point{
		{X: 8, Y: 8}, {X: 22, Y: 8}, {X: 36, Y: 8}, {X: 8, Y: 22},
		{X: 22, Y: 22}, {X: 36, Y: 22}, {X: 8, Y: 36}, {X: 22, Y: 36},
	}
	copy(p.Centers, coords)
	return sys, p
}
