package seqpair

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tap25d/internal/btree"
	"tap25d/internal/chiplet"
	"tap25d/internal/systems"
)

func TestRelationsPartitionPairs(t *testing.T) {
	// For any sequence pair, every block pair is related by exactly one of
	// {a left of b, b left of a, a below b, b below a}.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		w := make([]float64, n)
		h := make([]float64, n)
		for i := range w {
			w[i], h[i] = 1+rng.Float64()*9, 1+rng.Float64()*9
		}
		p := newPair(n, w, h)
		for k := 0; k < 20; k++ {
			p.perturb(rng)
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				rel := 0
				if p.leftOf(a, b) {
					rel++
				}
				if p.leftOf(b, a) {
					rel++
				}
				if p.below(a, b) {
					rel++
				}
				if p.below(b, a) {
					rel++
				}
				if rel != 1 {
					t.Fatalf("trial %d: pair (%d,%d) has %d relations", trial, a, b, rel)
				}
			}
		}
	}
}

func TestPackNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		w := make([]float64, n)
		h := make([]float64, n)
		for i := range w {
			w[i], h[i] = 1+rng.Float64()*9, 1+rng.Float64()*9
		}
		p := newPair(n, w, h)
		for k := 0; k < 30; k++ {
			p.perturb(rng)
		}
		xs, ys := p.pack()
		for a := 0; a < n; a++ {
			wa, ha := p.dims(a)
			if xs[a] < -1e-9 || ys[a] < -1e-9 {
				t.Fatalf("trial %d: block %d at negative position", trial, a)
			}
			for b := a + 1; b < n; b++ {
				wb, hb := p.dims(b)
				ox := math.Min(xs[a]+wa, xs[b]+wb) - math.Max(xs[a], xs[b])
				oy := math.Min(ys[a]+ha, ys[b]+hb) - math.Max(ys[a], ys[b])
				if ox > 1e-9 && oy > 1e-9 {
					t.Fatalf("trial %d: blocks %d and %d overlap", trial, a, b)
				}
			}
		}
	}
}

func TestPackKnownArrangements(t *testing.T) {
	// Identity pair: all blocks in a row.
	w := []float64{3, 4, 5}
	h := []float64{2, 2, 2}
	p := newPair(3, w, h)
	xs, ys := p.pack()
	if xs[0] != 0 || xs[1] != 3 || xs[2] != 7 {
		t.Errorf("row xs = %v", xs)
	}
	for _, y := range ys {
		if y != 0 {
			t.Errorf("row ys = %v", ys)
		}
	}
	// Reversed G+: a column (block i below block i-1).
	p2 := newPair(3, w, h)
	p2.gPlus = []int{2, 1, 0}
	p2.posPlus = []int{2, 1, 0}
	xs2, ys2 := p2.pack()
	for _, x := range xs2 {
		if x != 0 {
			t.Errorf("column xs = %v", xs2)
		}
	}
	if ys2[0] != 0 || ys2[1] != 2 || ys2[2] != 4 {
		t.Errorf("column ys = %v", ys2)
	}
}

func compactSystem() *chiplet.System {
	return &chiplet.System{
		Name:        "sp",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 12, H: 12, Power: 100},
			{Name: "B", W: 12, H: 12, Power: 100},
			{Name: "C", W: 8, H: 10, Power: 20},
			{Name: "D", W: 10, H: 8, Power: 20},
			{Name: "E", W: 6, H: 6, Power: 5},
		},
		Channels: []chiplet.Channel{
			{Src: 0, Dst: 1, Wires: 512},
			{Src: 0, Dst: 2, Wires: 256},
			{Src: 1, Dst: 3, Wires: 256},
			{Src: 2, Dst: 4, Wires: 128},
		},
	}
}

func TestPlaceCompactValid(t *testing.T) {
	sys := compactSystem()
	res, err := PlaceCompact(sys, Options{Seed: 1, Steps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
	var tot float64
	for _, c := range sys.Chiplets {
		tot += c.Area()
	}
	if res.BBoxMM.Area() > 2.2*tot {
		t.Errorf("packing too loose: %.0f vs chiplet area %.0f", res.BBoxMM.Area(), tot)
	}
	if res.WirelengthMM <= 0 {
		t.Error("non-positive wirelength")
	}
}

func TestPlaceCompactDeterministic(t *testing.T) {
	sys := compactSystem()
	a, err := PlaceCompact(sys, Options{Seed: 4, Steps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlaceCompact(sys, Options{Seed: 4, Steps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Placement.Centers {
		if a.Placement.Centers[i] != b.Placement.Centers[i] {
			t.Fatal("same seed, different placements")
		}
	}
}

func TestSeqPairComparableToBTree(t *testing.T) {
	// Two independent compact placers should land in the same wirelength
	// regime (within 2x of each other) on the same system.
	sys := compactSystem()
	sp, err := PlaceCompact(sys, Options{Seed: 2, Steps: 6000})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := btree.PlaceCompact(sys, btree.Options{Seed: 2, Steps: 6000})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sp.WirelengthMM, bt.WirelengthMM
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 2*lo {
		t.Errorf("placers disagree wildly: seqpair %.0f vs btree %.0f", sp.WirelengthMM, bt.WirelengthMM)
	}
}

func TestPlaceCompactSingleBlock(t *testing.T) {
	sys := &chiplet.System{
		Name:        "one",
		InterposerW: 20,
		InterposerH: 20,
		Chiplets:    []chiplet.Chiplet{{Name: "X", W: 9, H: 7, Power: 10}},
	}
	res, err := PlaceCompact(sys, Options{Seed: 1, Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceCompactRejectsImpossible(t *testing.T) {
	sys := &chiplet.System{
		Name:        "jam",
		InterposerW: 20,
		InterposerH: 20,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 19, H: 10, Power: 1},
			{Name: "B", W: 19, H: 11, Power: 1},
		},
	}
	if _, err := PlaceCompact(sys, Options{Seed: 1, Steps: 500}); err == nil {
		t.Error("impossible packing succeeded")
	}
}

func TestPlaceCompactRejectsInvalidSystem(t *testing.T) {
	if _, err := PlaceCompact(&chiplet.System{}, Options{}); err == nil {
		t.Error("invalid system accepted")
	}
}

// TestPlaceCompactAllocsIndependentOfSteps holds the anneal to its
// in-place loop: ten times the step budget may cost at most 50 more
// allocations.
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
	if _, err := PlaceCompact(compactSystem(), Options{Seed: 1, Steps: -1}); err == nil || !strings.Contains(err.Error(), "steps is -1") {
		t.Errorf("negative steps: error %v", err)
	}
}
