// Package ocm implements the Occupation Chiplet Matrix of TAP-2.5D
// (Section III-C1, Fig. 2a): the interposer is discretized into a 1 mm grid
// and chiplet centers may only sit on grid intersections, which bounds the
// placement solution space while leaving chiplet dimensions continuous.
//
// The matrix tracks, per grid node, whether a chiplet centered there would
// conflict with the current placement; it serves the placer's move and jump
// operators (valid-position queries) without re-scanning all pairs for every
// candidate.
package ocm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
)

// DefaultPitchMM is the paper's OCM granularity (1 mm).
const DefaultPitchMM = 1.0

// Grid is the discrete set of candidate chiplet-center locations.
type Grid struct {
	pitch  float64
	w, h   float64 // interposer dims, mm
	nx, ny int     // node counts per axis (nodes at 0, pitch, ..., <= w)
}

// NewGrid builds a grid for the system's interposer with the given pitch
// (0 means DefaultPitchMM).
func NewGrid(sys *chiplet.System, pitch float64) (*Grid, error) {
	if pitch == 0 {
		pitch = DefaultPitchMM
	}
	if pitch <= 0 {
		return nil, fmt.Errorf("ocm: non-positive pitch %g", pitch)
	}
	if sys.InterposerW <= 0 || sys.InterposerH <= 0 {
		return nil, fmt.Errorf("ocm: system %q has no interposer", sys.Name)
	}
	g := &Grid{pitch: pitch, w: sys.InterposerW, h: sys.InterposerH}
	g.nx = int(math.Floor(sys.InterposerW/pitch)) + 1
	g.ny = int(math.Floor(sys.InterposerH/pitch)) + 1
	return g, nil
}

// Pitch returns the grid pitch in mm.
func (g *Grid) Pitch() float64 { return g.pitch }

// Nodes returns the per-axis node counts (nx, ny).
func (g *Grid) Nodes() (int, int) { return g.nx, g.ny }

// Snap returns the grid node nearest to p, clamped onto the interposer.
func (g *Grid) Snap(p geom.Point) geom.Point {
	ix := int(math.Round(p.X / g.pitch))
	iy := int(math.Round(p.Y / g.pitch))
	ix = clamp(ix, 0, g.nx-1)
	iy = clamp(iy, 0, g.ny-1)
	return geom.Point{X: float64(ix) * g.pitch, Y: float64(iy) * g.pitch}
}

// OnGrid reports whether p coincides with a grid node.
func (g *Grid) OnGrid(p geom.Point) bool {
	s := g.Snap(p)
	return math.Abs(s.X-p.X) < 1e-9 && math.Abs(s.Y-p.Y) < 1e-9
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CandidateValid reports whether chiplet c of sys, centered at node center
// with the given rotation, is a valid position against placement p ignoring
// chiplet c's own current location: fully on the interposer (Eqn. 11) and at
// least the system gap away from every other chiplet (Eqn. 10).
func (g *Grid) CandidateValid(sys *chiplet.System, p chiplet.Placement, c int, center geom.Point, rotated bool) bool {
	die := sys.Chiplets[c]
	w, h := die.W, die.H
	if rotated {
		w, h = h, w
	}
	r := geom.Rect{Center: center, W: w, H: h}
	if !sys.Interposer().ContainsRect(r) {
		return false
	}
	gap := sys.Gap()
	for j := range sys.Chiplets {
		if j == c {
			continue
		}
		if !r.SeparatedBy(p.Rect(sys, j), gap) {
			return false
		}
	}
	return true
}

// ValidPositions enumerates every grid node where chiplet c could be centered
// (with its current rotation) without conflicting with the other chiplets of
// placement p. The list excludes the chiplet's current node. This implements
// the candidate set of the paper's jump operation (Fig. 2d).
func (g *Grid) ValidPositions(sys *chiplet.System, p chiplet.Placement, c int) []geom.Point {
	var out []geom.Point
	cur := p.Centers[c]
	for ix := 0; ix < g.nx; ix++ {
		for iy := 0; iy < g.ny; iy++ {
			pt := geom.Point{X: float64(ix) * g.pitch, Y: float64(iy) * g.pitch}
			if pt == cur {
				continue
			}
			if g.CandidateValid(sys, p, c, pt, p.Rotated[c]) {
				out = append(out, pt)
			}
		}
	}
	return out
}

// RandomValidPosition returns a uniformly random valid jump target for
// chiplet c, or false when none exists. It uses reservoir sampling over the
// candidate enumeration, so it allocates nothing.
func (g *Grid) RandomValidPosition(sys *chiplet.System, p chiplet.Placement, c int, rng *rand.Rand) (geom.Point, bool) {
	var pick geom.Point
	count := 0
	cur := p.Centers[c]
	for ix := 0; ix < g.nx; ix++ {
		for iy := 0; iy < g.ny; iy++ {
			pt := geom.Point{X: float64(ix) * g.pitch, Y: float64(iy) * g.pitch}
			if pt == cur {
				continue
			}
			if !g.CandidateValid(sys, p, c, pt, p.Rotated[c]) {
				continue
			}
			count++
			if rng.Intn(count) == 0 {
				pick = pt
			}
		}
	}
	return pick, count > 0
}

// SnapPlacement returns a copy of p with every center snapped onto the grid.
// Snapping can create conflicts; Legalize fixes them.
func (g *Grid) SnapPlacement(p chiplet.Placement) chiplet.Placement {
	q := p.Clone()
	for i := range q.Centers {
		q.Centers[i] = g.Snap(q.Centers[i])
	}
	return q
}

// Legalize snaps every center to the grid and resolves any resulting
// conflicts. Compact inputs (e.g. B*-tree packings with 0.1 mm gaps) shift by
// up to half a pitch when snapped and can end up mutually overlapping, so
// legalization places chiplets one at a time from the interposer center
// outward, each at the valid grid node nearest its snapped position given
// only the chiplets already placed. When that fails it retries largest die
// first, and when that fails too, largest die first with each die at the
// valid node nearest the interposer's lower-left corner, which packs the dies
// against two edges instead of where the snapped input left them. Each pass
// runs only when the ones before it failed, so an input that legalizes keeps
// its result. It returns an error when every pass leaves some chiplet with no
// valid node (the system does not fit on the grid).
func (g *Grid) Legalize(sys *chiplet.System, p chiplet.Placement) (chiplet.Placement, error) {
	snapped := g.SnapPlacement(p)
	center := geom.Point{X: g.w / 2, Y: g.h / 2}

	centerOut := make([]int, len(snapped.Centers))
	for i := range centerOut {
		centerOut[i] = i
	}
	sort.SliceStable(centerOut, func(a, b int) bool {
		return snapped.Centers[centerOut[a]].Manhattan(center) < snapped.Centers[centerOut[b]].Manhattan(center)
	})
	// Fallback order: largest dies first — small dies placed early can
	// fragment the space a big die needs.
	areaDesc := make([]int, len(snapped.Centers))
	copy(areaDesc, centerOut)
	sort.SliceStable(areaDesc, func(a, b int) bool {
		return sys.Chiplets[areaDesc[a]].Area() > sys.Chiplets[areaDesc[b]].Area()
	})

	var lastErr error
	for pass, order := range [][]int{centerOut, areaDesc, areaDesc} {
		q := snapped.Clone()
		placed := make([]bool, len(q.Centers))
		ok := true
		for _, i := range order {
			target := q.Centers[i]
			if pass == 2 {
				target = geom.Point{} // the lower-left corner
			}
			best, found := g.nearestValidAmong(sys, q, i, placed, target)
			if !found {
				lastErr = fmt.Errorf("ocm: chiplet %d (%s) has no valid grid position", i, sys.Chiplets[i].Name)
				ok = false
				break
			}
			q.Centers[i] = best
			placed[i] = true
		}
		if ok {
			return q, nil
		}
	}
	return snapped, lastErr
}

// nearestValidAmong finds the valid node for chiplet c closest to target,
// checking conflicts only against chiplets marked in placed.
func (g *Grid) nearestValidAmong(sys *chiplet.System, p chiplet.Placement, c int, placed []bool, target geom.Point) (geom.Point, bool) {
	die := sys.Chiplets[c]
	w, h := die.W, die.H
	if p.Rotated[c] {
		w, h = h, w
	}
	gap := sys.Gap()
	ip := sys.Interposer()
	bestD := math.Inf(1)
	var best geom.Point
	found := false
	for ix := 0; ix < g.nx; ix++ {
		for iy := 0; iy < g.ny; iy++ {
			pt := geom.Point{X: float64(ix) * g.pitch, Y: float64(iy) * g.pitch}
			d := target.Manhattan(pt)
			if d >= bestD {
				continue
			}
			r := geom.Rect{Center: pt, W: w, H: h}
			if !ip.ContainsRect(r) {
				continue
			}
			ok := true
			for j := range sys.Chiplets {
				if j == c || (placed != nil && !placed[j]) {
					continue
				}
				if !r.SeparatedBy(p.Rect(sys, j), gap) {
					ok = false
					break
				}
			}
			if ok {
				bestD, best, found = d, pt, true
			}
		}
	}
	return best, found
}

// Occupancy renders the boolean occupation matrix of Fig. 2a for placement p:
// cell (i, j) is the index of the chiplet covering the cell centered at
// ((j+0.5)·pitch, (i+0.5)·pitch), or -1 when empty. Cells are pitch×pitch;
// the matrix is (ny-1)×(nx-1).
func (g *Grid) Occupancy(sys *chiplet.System, p chiplet.Placement) [][]int {
	rows := g.ny - 1
	cols := g.nx - 1
	occ := make([][]int, rows)
	rects := p.Rects(sys)
	for i := 0; i < rows; i++ {
		occ[i] = make([]int, cols)
		for j := 0; j < cols; j++ {
			occ[i][j] = -1
			center := geom.Point{X: (float64(j) + 0.5) * g.pitch, Y: (float64(i) + 0.5) * g.pitch}
			for c, r := range rects {
				if r.Contains(center) {
					occ[i][j] = c
					break
				}
			}
		}
	}
	return occ
}
