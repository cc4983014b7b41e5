package ocm

import (
	"fmt"
	"math/rand"
	"testing"

	"tap25d/internal/btree"
	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
	"tap25d/internal/systems"
)

func testSystem() (*chiplet.System, chiplet.Placement) {
	sys := &chiplet.System{
		Name:        "t",
		InterposerW: 20,
		InterposerH: 20,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 6, H: 6, Power: 10},
			{Name: "B", W: 4, H: 8, Power: 5},
		},
		Channels: []chiplet.Channel{{Src: 0, Dst: 1, Wires: 16}},
	}
	p := chiplet.NewPlacement(2)
	p.Centers[0] = geom.Point{X: 5, Y: 5}
	p.Centers[1] = geom.Point{X: 15, Y: 12}
	return sys, p
}

func TestNewGrid(t *testing.T) {
	sys, _ := testSystem()
	g, err := NewGrid(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Pitch() != DefaultPitchMM {
		t.Errorf("pitch = %v", g.Pitch())
	}
	nx, ny := g.Nodes()
	if nx != 21 || ny != 21 {
		t.Errorf("nodes = %d, %d; want 21, 21", nx, ny)
	}
	if _, err := NewGrid(sys, -1); err == nil {
		t.Error("negative pitch accepted")
	}
	if _, err := NewGrid(&chiplet.System{}, 1); err == nil {
		t.Error("empty system accepted")
	}
}

func TestSnapAndOnGrid(t *testing.T) {
	sys, _ := testSystem()
	g, _ := NewGrid(sys, 1)
	if got := g.Snap(geom.Point{X: 4.4, Y: 7.6}); got != (geom.Point{X: 4, Y: 8}) {
		t.Errorf("Snap = %v", got)
	}
	// Clamps beyond the interposer.
	if got := g.Snap(geom.Point{X: -3, Y: 99}); got != (geom.Point{X: 0, Y: 20}) {
		t.Errorf("Snap clamp = %v", got)
	}
	if !g.OnGrid(geom.Point{X: 7, Y: 13}) {
		t.Error("grid node not recognized")
	}
	if g.OnGrid(geom.Point{X: 7.5, Y: 13}) {
		t.Error("off-grid point recognized")
	}
}

func TestCandidateValid(t *testing.T) {
	sys, p := testSystem()
	g, _ := NewGrid(sys, 1)
	// A is 6x6: valid centers are within [3, 17].
	if g.CandidateValid(sys, p, 0, geom.Point{X: 2, Y: 5}, false) {
		t.Error("off-interposer candidate accepted")
	}
	if !g.CandidateValid(sys, p, 0, geom.Point{X: 3, Y: 3}, false) {
		t.Error("corner candidate rejected")
	}
	// Overlapping B at (15, 12): B spans x [13,17], y [8,16].
	if g.CandidateValid(sys, p, 0, geom.Point{X: 14, Y: 12}, false) {
		t.Error("overlapping candidate accepted")
	}
	// Just left of B with >= 0.1 gap: A at (10, 12) spans x [7,13]; B west
	// edge at 13 -> gap 0 < 0.1 -> invalid.
	if g.CandidateValid(sys, p, 0, geom.Point{X: 10, Y: 12}, false) {
		t.Error("zero-gap candidate accepted")
	}
	// At (9, 12): A east edge 12, gap 1 -> valid.
	if !g.CandidateValid(sys, p, 0, geom.Point{X: 9, Y: 12}, false) {
		t.Error("1 mm-gap candidate rejected")
	}
	// Rotation changes footprint: B is 4x8; rotated 8x4 at (15, 18) spans
	// y [16, 20] -> on interposer; unrotated spans y [14, 22] -> off.
	if g.CandidateValid(sys, p, 1, geom.Point{X: 15, Y: 18}, false) {
		t.Error("tall B at y=18 should poke off the interposer")
	}
	if !g.CandidateValid(sys, p, 1, geom.Point{X: 15, Y: 18}, true) {
		t.Error("rotated B at y=18 should fit")
	}
}

func TestValidPositionsAllValid(t *testing.T) {
	sys, p := testSystem()
	g, _ := NewGrid(sys, 1)
	pos := g.ValidPositions(sys, p, 0)
	if len(pos) == 0 {
		t.Fatal("no valid positions on a mostly-empty interposer")
	}
	for _, pt := range pos {
		q := p.Clone()
		q.Centers[0] = pt
		if err := sys.CheckPlacement(q); err != nil {
			t.Fatalf("ValidPositions returned invalid %v: %v", pt, err)
		}
		if pt == p.Centers[0] {
			t.Fatal("ValidPositions included the current position")
		}
	}
}

func TestRandomValidPositionIsValidAndCovers(t *testing.T) {
	sys, p := testSystem()
	g, _ := NewGrid(sys, 1)
	all := g.ValidPositions(sys, p, 0)
	seen := map[geom.Point]bool{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		pt, ok := g.RandomValidPosition(sys, p, 0, rng)
		if !ok {
			t.Fatal("no valid position found")
		}
		seen[pt] = true
	}
	// Sampling should hit a large share of the candidate set.
	if len(seen) < len(all)/2 {
		t.Errorf("sampled only %d of %d valid positions", len(seen), len(all))
	}
	for pt := range seen {
		q := p.Clone()
		q.Centers[0] = pt
		if err := sys.CheckPlacement(q); err != nil {
			t.Fatalf("sampled invalid position %v: %v", pt, err)
		}
	}
}

func TestRandomValidPositionNoneAvailable(t *testing.T) {
	// A chiplet as large as the interposer has exactly one valid node (its
	// center) — which is excluded as the current position.
	sys := &chiplet.System{
		Name:        "full",
		InterposerW: 10,
		InterposerH: 10,
		Chiplets:    []chiplet.Chiplet{{Name: "X", W: 10, H: 10, Power: 1}},
	}
	p := chiplet.NewPlacement(1)
	p.Centers[0] = geom.Point{X: 5, Y: 5}
	g, _ := NewGrid(sys, 1)
	if _, ok := g.RandomValidPosition(sys, p, 0, rand.New(rand.NewSource(1))); ok {
		t.Error("found a jump target for a full-interposer chiplet")
	}
}

func TestLegalize(t *testing.T) {
	sys, p := testSystem()
	g, _ := NewGrid(sys, 1)
	// Off-grid, slightly overlapping input.
	p.Centers[0] = geom.Point{X: 12.3, Y: 11.7}
	p.Centers[1] = geom.Point{X: 15.2, Y: 12.4}
	q, err := g.Legalize(sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(q); err != nil {
		t.Fatalf("legalized placement invalid: %v", err)
	}
	for _, c := range q.Centers {
		if !g.OnGrid(c) {
			t.Errorf("center %v off grid after legalize", c)
		}
	}
}

func TestLegalizeImpossible(t *testing.T) {
	// Two interposer-sized chiplets cannot both be placed.
	sys := &chiplet.System{
		Name:        "jam",
		InterposerW: 10,
		InterposerH: 10,
		Chiplets: []chiplet.Chiplet{
			{Name: "X", W: 10, H: 10, Power: 1},
			{Name: "Y", W: 10, H: 10, Power: 1},
		},
	}
	p := chiplet.NewPlacement(2)
	p.Centers[0] = geom.Point{X: 5, Y: 5}
	p.Centers[1] = geom.Point{X: 5, Y: 5}
	g, _ := NewGrid(sys, 1)
	if _, err := g.Legalize(sys, p); err == nil {
		t.Error("impossible legalization succeeded")
	}
}

// TestLegalizeFallback: Compact-2.5D packings that neither the center-out
// nor the largest-first pass can legalize — some die finds no node left
// between the dies placed before it — must legalize through the corner pass:
// on the grid, and valid under CheckPlacement.
func TestLegalizeFallback(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sys   *chiplet.System
		steps int
		seeds []int64
	}{
		{"multigpu", systems.MultiGPU(), 2000, []int64{4, 5, 7}},
		{"cpudram", systems.CPUDRAM(), 20000, []int64{5}},
	} {
		for _, seed := range tc.seeds {
			t.Run(fmt.Sprintf("%s/steps%d/seed%d", tc.name, tc.steps, seed), func(t *testing.T) {
				res, err := btree.PlaceCompact(tc.sys, btree.Options{Seed: seed, Steps: tc.steps})
				if err != nil {
					t.Fatal(err)
				}
				g, err := NewGrid(tc.sys, DefaultPitchMM)
				if err != nil {
					t.Fatal(err)
				}
				q, err := g.Legalize(tc.sys, res.Placement)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.sys.CheckPlacement(q); err != nil {
					t.Fatalf("legalized placement invalid: %v", err)
				}
				for i, c := range q.Centers {
					if !g.OnGrid(c) {
						t.Errorf("chiplet %d at %v off grid", i, c)
					}
				}
			})
		}
	}
}

func TestOccupancy(t *testing.T) {
	sys, p := testSystem()
	g, _ := NewGrid(sys, 1)
	occ := g.Occupancy(sys, p)
	if len(occ) != 20 || len(occ[0]) != 20 {
		t.Fatalf("occupancy dims %dx%d", len(occ), len(occ[0]))
	}
	// A at (5,5) 6x6 covers cells x 2..7, y 2..7 (cell centers 2.5..7.5).
	if occ[5][5] != 0 {
		t.Errorf("cell under A = %d, want 0", occ[5][5])
	}
	if occ[12][14] != 1 { // B at (15,12) 4x8 covers x 13..16, y 8..15
		t.Errorf("cell under B = %d, want 1", occ[12][14])
	}
	if occ[0][19] != -1 {
		t.Errorf("empty corner = %d, want -1", occ[0][19])
	}
	// Total occupied cell count approximates total chiplet area.
	count := 0
	for _, row := range occ {
		for _, v := range row {
			if v >= 0 {
				count++
			}
		}
	}
	want := int(sys.Chiplets[0].Area() + sys.Chiplets[1].Area())
	if count < want-8 || count > want+8 {
		t.Errorf("occupied cells = %d, want about %d", count, want)
	}
}
