package btree

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tap25d/internal/chiplet"
	"tap25d/internal/systems"
)

func squares(n int, size float64) ([]float64, []float64) {
	w := make([]float64, n)
	h := make([]float64, n)
	for i := range w {
		w[i], h[i] = size, size
	}
	return w, h
}

func TestNewTreeValid(t *testing.T) {
	w, h := squares(7, 5)
	tr := newTree(7, w, h)
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbKeepsTreeValid(t *testing.T) {
	w, h := squares(9, 4)
	tr := newTree(9, w, h)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		perturb(tr, rng)
		if err := tr.validate(); err != nil {
			t.Fatalf("after %d perturbations: %v", i+1, err)
		}
	}
}

func TestPackNoOverlap(t *testing.T) {
	w := []float64{5, 3, 7, 2, 4, 6}
	h := []float64{4, 6, 3, 5, 2, 4}
	tr := newTree(6, w, h)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		perturb(tr, rng)
		xs, ys := tr.pack()
		for a := 0; a < 6; a++ {
			wa, ha := tr.blockDims(a)
			for b := a + 1; b < 6; b++ {
				wb, hb := tr.blockDims(b)
				overlapX := math.Min(xs[a]+wa, xs[b]+wb) - math.Max(xs[a], xs[b])
				overlapY := math.Min(ys[a]+ha, ys[b]+hb) - math.Max(ys[a], ys[b])
				if overlapX > 1e-9 && overlapY > 1e-9 {
					t.Fatalf("trial %d: blocks %d and %d overlap", trial, a, b)
				}
			}
		}
		for b := 0; b < 6; b++ {
			if xs[b] < -1e-9 || ys[b] < -1e-9 {
				t.Fatalf("trial %d: block %d at negative position", trial, b)
			}
		}
	}
}

func TestPackIsCompactForChain(t *testing.T) {
	// A pure left-chain packs blocks in a row on the floor.
	w, h := squares(4, 5)
	tr := newTree(4, w, h)
	// Rewire into a left chain 0 -> 1 -> 2 -> 3.
	for i := range tr.nodes {
		tr.nodes[i] = node{parent: i - 1, left: i + 1, right: -1}
	}
	tr.nodes[3].left = -1
	xs, ys := tr.pack()
	for b := 0; b < 4; b++ {
		if ys[b] != 0 {
			t.Errorf("block %d at y=%v, want 0", b, ys[b])
		}
		if xs[b] != float64(b)*5 {
			t.Errorf("block %d at x=%v, want %v", b, xs[b], float64(b)*5)
		}
	}
}

func TestContour(t *testing.T) {
	c := new(contour)
	c.reset()
	if y := c.place(0, 5, 3); y != 0 {
		t.Errorf("first block y=%v", y)
	}
	if y := c.place(0, 5, 2); y != 3 {
		t.Errorf("stacked block y=%v, want 3", y)
	}
	if y := c.place(5, 5, 4); y != 0 {
		t.Errorf("adjacent block y=%v, want 0", y)
	}
	// Straddling block rests on the taller of the two columns.
	if y := c.place(3, 4, 1); y != 5 {
		t.Errorf("straddling block y=%v, want 5", y)
	}
}

func fourChipletSystem() *chiplet.System {
	return &chiplet.System{
		Name:        "quad",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 10, H: 10, Power: 100},
			{Name: "B", W: 10, H: 10, Power: 100},
			{Name: "C", W: 8, H: 12, Power: 10},
			{Name: "D", W: 12, H: 8, Power: 10},
		},
		Channels: []chiplet.Channel{
			{Src: 0, Dst: 1, Wires: 512},
			{Src: 0, Dst: 2, Wires: 256},
			{Src: 1, Dst: 3, Wires: 256},
		},
	}
}

func TestPlaceCompactValidAndCompact(t *testing.T) {
	sys := fourChipletSystem()
	res, err := PlaceCompact(sys, Options{Seed: 1, Steps: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatalf("compact placement invalid: %v", err)
	}
	// Compactness: bounding box area should be within 2x of total chiplet
	// area (a loose but meaningful bound for 4 blocks).
	var tot float64
	for _, c := range sys.Chiplets {
		tot += c.Area()
	}
	if res.BBoxMM.Area() > 2*tot {
		t.Errorf("bbox area %.0f too loose vs chiplet area %.0f", res.BBoxMM.Area(), tot)
	}
	if res.WirelengthMM <= 0 {
		t.Error("wirelength should be positive")
	}
}

func TestPlaceCompactDeterministic(t *testing.T) {
	sys := fourChipletSystem()
	a, err := PlaceCompact(sys, Options{Seed: 7, Steps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlaceCompact(sys, Options{Seed: 7, Steps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Placement.Centers {
		if a.Placement.Centers[i] != b.Placement.Centers[i] || a.Placement.Rotated[i] != b.Placement.Rotated[i] {
			t.Fatalf("same seed produced different placements at chiplet %d", i)
		}
	}
}

func TestPlaceCompactConnectedChipletsNearby(t *testing.T) {
	// The heavily connected pair (A, B; 512 wires) should end up closer
	// than the unconnected pair (C, D) in most seeds.
	sys := fourChipletSystem()
	res, err := PlaceCompact(sys, Options{Seed: 2, Steps: 6000})
	if err != nil {
		t.Fatal(err)
	}
	dAB := res.Placement.Centers[0].Manhattan(res.Placement.Centers[1])
	dCD := res.Placement.Centers[2].Manhattan(res.Placement.Centers[3])
	if dAB > dCD+1 {
		t.Errorf("connected pair distance %.1f exceeds unconnected %.1f", dAB, dCD)
	}
}

func TestPlaceCompactRejectsOversizedSystem(t *testing.T) {
	sys := &chiplet.System{
		Name:        "toobig",
		InterposerW: 20,
		InterposerH: 20,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 19, H: 10, Power: 1},
			{Name: "B", W: 19, H: 11, Power: 1},
		},
	}
	// Validate passes on raw area (19*10+19*11 = 399 < 400) but no legal
	// compact packing fits with gaps; PlaceCompact must error, not return
	// an invalid placement.
	if _, err := PlaceCompact(sys, Options{Seed: 1, Steps: 500}); err == nil {
		t.Error("impossible packing did not error")
	}
}

func TestPlaceCompactSingleChiplet(t *testing.T) {
	sys := &chiplet.System{
		Name:        "solo",
		InterposerW: 20,
		InterposerH: 20,
		Chiplets:    []chiplet.Chiplet{{Name: "A", W: 8, H: 6, Power: 10}},
	}
	res, err := PlaceCompact(sys, Options{Seed: 1, Steps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceCompactEightChiplets(t *testing.T) {
	sys := &chiplet.System{
		Name:        "oct",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "C0", W: 13, H: 13, Power: 140},
			{Name: "C1", W: 13, H: 13, Power: 140},
			{Name: "C2", W: 13, H: 13, Power: 140},
			{Name: "C3", W: 13, H: 13, Power: 140},
			{Name: "D0", W: 9, H: 9, Power: 10},
			{Name: "D1", W: 9, H: 9, Power: 10},
			{Name: "D2", W: 9, H: 9, Power: 10},
			{Name: "D3", W: 9, H: 9, Power: 10},
		},
		Channels: []chiplet.Channel{
			{Src: 0, Dst: 1, Wires: 768}, {Src: 1, Dst: 2, Wires: 768},
			{Src: 2, Dst: 3, Wires: 768}, {Src: 3, Dst: 0, Wires: 768},
			{Src: 0, Dst: 4, Wires: 512}, {Src: 1, Dst: 5, Wires: 512},
			{Src: 2, Dst: 6, Wires: 512}, {Src: 3, Dst: 7, Wires: 512},
		},
	}
	res, err := PlaceCompact(sys, Options{Seed: 3, Steps: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
	// The packing must be reasonably tight: bbox within the interposer and
	// area within 1.8x of the chiplet area.
	var tot float64
	for _, c := range sys.Chiplets {
		tot += c.Area()
	}
	if res.BBoxMM.Area() > 1.8*tot {
		t.Errorf("8-chiplet packing too loose: %.0f vs %.0f", res.BBoxMM.Area(), tot)
	}
}

func BenchmarkPlaceCompact8(b *testing.B) {
	sys := fourChipletSystem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlaceCompact(sys, Options{Seed: int64(i), Steps: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlaceCompactAllocsIndependentOfSteps holds the anneal to its
// in-place loop: ten times the step budget may cost only the few
// allocations that scratch buffers need to grow to a longer skyline.
func TestPlaceCompactAllocsIndependentOfSteps(t *testing.T) {
	for name, sys := range systems.All() {
		allocs := func(steps int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := PlaceCompact(sys, Options{Seed: 1, Steps: steps}); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(2000), allocs(20000)
		t.Logf("%s: %.0f allocs at 2000 steps, %.0f at 20000", name, short, long)
		if long > short+50 {
			t.Errorf("%s: %.0f allocs at 20000 steps, %.0f at 2000; want at most 50 more", name, long, short)
		}
	}
}

func BenchmarkPlaceCompact(b *testing.B) {
	for _, name := range systems.Names() {
		sys, err := systems.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlaceCompact(sys, Options{Seed: int64(i + 1), Steps: 20000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPlaceCompactRejectsNegativeSteps(t *testing.T) {
	if _, err := PlaceCompact(fourChipletSystem(), Options{Seed: 1, Steps: -1}); err == nil || !strings.Contains(err.Error(), "steps is -1") {
		t.Errorf("negative steps: error %v", err)
	}
}
