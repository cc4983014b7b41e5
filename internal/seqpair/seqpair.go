// Package seqpair implements the Sequence Pair floorplan representation of
// Murata et al. ("VLSI module placement based on rectangle-packing by the
// sequence-pair", IEEE TCAD 1996) with a simulated-annealing search — the
// first of the compact-placement representations the paper's related-work
// section surveys (Section II). It serves as an alternative baseline to the
// B*-tree Compact-2.5D placer and as a cross-check: two independent compact
// placers should produce placements of comparable wirelength and area, and
// both should be beaten on temperature by TAP-2.5D.
//
// A sequence pair (G+, G-) encodes relative positions: block a left of b
// when a precedes b in both sequences; a below b when a follows b in G+ but
// precedes it in G-. Coordinates follow from longest-path computations over
// the induced constraint DAGs.
package seqpair

import (
	"fmt"
	"math"
	"math/rand"

	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
)

// pair is a sequence-pair state over n blocks plus per-block rotations.
type pair struct {
	gPlus, gMinus []int // permutations of block indices
	posPlus       []int // block -> index in gPlus
	posMinus      []int // block -> index in gMinus
	rot           []bool
	w, h          []float64 // inflated block dims, unrotated
	xs, ys        []float64 // pack's scratch, reused so an anneal allocates nothing per step
}

func newPair(n int, w, h []float64) *pair {
	p := &pair{
		gPlus:    make([]int, n),
		gMinus:   make([]int, n),
		posPlus:  make([]int, n),
		posMinus: make([]int, n),
		rot:      make([]bool, n),
		w:        w,
		h:        h,
	}
	for i := 0; i < n; i++ {
		p.gPlus[i], p.gMinus[i] = i, i
		p.posPlus[i], p.posMinus[i] = i, i
	}
	return p
}

// copyFrom makes p the same state as src, reusing p's storage.
func (p *pair) copyFrom(src *pair) {
	p.gPlus = append(p.gPlus[:0], src.gPlus...)
	p.gMinus = append(p.gMinus[:0], src.gMinus...)
	p.posPlus = append(p.posPlus[:0], src.posPlus...)
	p.posMinus = append(p.posMinus[:0], src.posMinus...)
	p.rot = append(p.rot[:0], src.rot...)
	p.w, p.h = src.w, src.h
}

func (p *pair) dims(b int) (float64, float64) {
	if p.rot[b] {
		return p.h[b], p.w[b]
	}
	return p.w[b], p.h[b]
}

// pack computes lower-left block corners by longest paths over the
// horizontal and vertical constraint graphs. The returned slices are p's
// scratch, valid until p packs again.
func (p *pair) pack() (xs, ys []float64) {
	n := len(p.gPlus)
	if len(p.xs) != n {
		p.xs = make([]float64, n)
		p.ys = make([]float64, n)
	}
	xs, ys = p.xs, p.ys
	// Process blocks in gMinus order for x: any block left of another
	// precedes it in gMinus, so a single sweep relaxes all predecessors.
	for _, b := range p.gMinus {
		var x float64
		for a := 0; a < n; a++ {
			if a == b {
				continue
			}
			if p.leftOf(a, b) {
				wa, _ := p.dims(a)
				x = math.Max(x, xs[a]+wa)
			}
		}
		xs[b] = x
	}
	// For y, "a below b" means a after b in gPlus, before in gMinus;
	// process in reverse gPlus order so below-predecessors resolve first.
	for idx := n - 1; idx >= 0; idx-- {
		b := p.gPlus[idx]
		var y float64
		for a := 0; a < n; a++ {
			if a == b {
				continue
			}
			if p.below(a, b) {
				_, ha := p.dims(a)
				y = math.Max(y, ys[a]+ha)
			}
		}
		ys[b] = y
	}
	return xs, ys
}

// leftOf reports whether a is constrained left of b.
func (p *pair) leftOf(a, b int) bool {
	return p.posPlus[a] < p.posPlus[b] && p.posMinus[a] < p.posMinus[b]
}

// below reports whether a is constrained below b.
func (p *pair) below(a, b int) bool {
	return p.posPlus[a] > p.posPlus[b] && p.posMinus[a] < p.posMinus[b]
}

func (p *pair) swapIn(seq []int, pos []int, i, j int) {
	seq[i], seq[j] = seq[j], seq[i]
	pos[seq[i]] = i
	pos[seq[j]] = j
}

func (p *pair) perturb(rng *rand.Rand) {
	n := len(p.gPlus)
	if n == 1 {
		p.rot[0] = !p.rot[0]
		return
	}
	i, j := rng.Intn(n), rng.Intn(n)
	for j == i {
		j = rng.Intn(n)
	}
	switch rng.Intn(3) {
	case 0: // swap in G+ only
		p.swapIn(p.gPlus, p.posPlus, i, j)
	case 1: // swap in both sequences
		p.swapIn(p.gPlus, p.posPlus, i, j)
		p.swapIn(p.gMinus, p.posMinus, i, j)
	default: // rotate block i
		p.rot[i] = !p.rot[i]
	}
}

// Options configures the sequence-pair compact placer.
type Options struct {
	// Seed drives the annealer deterministically.
	Seed int64
	// Steps is the SA perturbation budget (default 20000).
	Steps int
}

// wirelengthWeight and areaWeight blend the objectives after normalization,
// matching the B*-tree baseline.
const (
	wirelengthWeight = 0.7
	areaWeight       = 0.3
)

// Result reports the packed placement and metrics.
type Result struct {
	Placement chiplet.Placement
	// BBoxMM bounds the packed blocks (with gap margins).
	BBoxMM geom.Rect
	// WirelengthMM is the wire-count-weighted Manhattan center wirelength
	// (the SA objective, not routed wirelength).
	WirelengthMM float64
}

// PlaceCompact packs sys compactly with a sequence-pair annealer, centering
// the result on the interposer.
func PlaceCompact(sys *chiplet.System, opt Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if opt.Steps < 0 {
		return nil, fmt.Errorf("seqpair: steps is %d; want 0 (the default) or more", opt.Steps)
	}
	n := len(sys.Chiplets)
	steps := opt.Steps
	if steps == 0 {
		steps = 20000
	}
	gap := sys.Gap()
	w := make([]float64, n)
	h := make([]float64, n)
	for i, c := range sys.Chiplets {
		w[i] = c.W + gap
		h[i] = c.H + gap
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	cur := newPair(n, w, h)

	xs0, ys0 := cur.pack()
	wlScale := math.Max(1, wirelength(sys, cur, xs0, ys0))
	bw0, bh0 := bbox(cur, xs0, ys0)
	areaScale := math.Max(1, bw0*bh0)

	eval := func(pr *pair) float64 {
		xs, ys := pr.pack()
		bw, bh := bbox(pr, xs, ys)
		cost := wirelengthWeight*wirelength(sys, pr, xs, ys)/wlScale + areaWeight*bw*bh/areaScale
		if over := bw - sys.InterposerW; over > 0 {
			cost += over * 100
		}
		if over := bh - sys.InterposerH; over > 0 {
			cost += over * 100
		}
		return cost
	}

	// The anneal works in place: nb is rebuilt from cur each step and the
	// two swap on accept, and best is copied over when beaten.
	curCost := eval(cur)
	best, nb := new(pair), new(pair)
	best.copyFrom(cur)
	bestCost := curCost
	temp := initialTemp(cur, nb, rng, eval)
	decay := math.Pow(1e-4, 1/float64(steps))
	for it := 0; it < steps; it++ {
		nb.copyFrom(cur)
		nb.perturb(rng)
		nbCost := eval(nb)
		if d := nbCost - curCost; d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			cur, nb = nb, cur
			curCost = nbCost
			if curCost < bestCost {
				best.copyFrom(cur)
				bestCost = curCost
			}
		}
		temp *= decay
	}

	xs, ys := best.pack()
	bw, bh := bbox(best, xs, ys)
	if bw > sys.InterposerW+1e-9 || bh > sys.InterposerH+1e-9 {
		return nil, fmt.Errorf("seqpair: packing %.1fx%.1f mm exceeds the %gx%g mm interposer",
			bw, bh, sys.InterposerW, sys.InterposerH)
	}
	dx := (sys.InterposerW - bw) / 2
	dy := (sys.InterposerH - bh) / 2
	pl := chiplet.NewPlacement(n)
	for b := 0; b < n; b++ {
		dwb, dhb := best.dims(b)
		pl.Centers[b] = geom.Point{X: xs[b] + dwb/2 + dx, Y: ys[b] + dhb/2 + dy}
		pl.Rotated[b] = best.rot[b]
	}
	if err := sys.CheckPlacement(pl); err != nil {
		return nil, fmt.Errorf("seqpair: packed placement invalid: %w", err)
	}
	return &Result{
		Placement:    pl,
		BBoxMM:       geom.RectFromBounds(dx, dy, dx+bw, dy+bh),
		WirelengthMM: wirelength(sys, best, xs, ys),
	}, nil
}

func wirelength(sys *chiplet.System, p *pair, xs, ys []float64) float64 {
	var wl float64
	for _, ch := range sys.Channels {
		wi, hi := p.dims(ch.Src)
		wj, hj := p.dims(ch.Dst)
		ci := geom.Point{X: xs[ch.Src] + wi/2, Y: ys[ch.Src] + hi/2}
		cj := geom.Point{X: xs[ch.Dst] + wj/2, Y: ys[ch.Dst] + hj/2}
		wl += float64(ch.Wires) * ci.Manhattan(cj)
	}
	return wl
}

func bbox(p *pair, xs, ys []float64) (float64, float64) {
	var bw, bh float64
	for b := range xs {
		dwb, dhb := p.dims(b)
		bw = math.Max(bw, xs[b]+dwb)
		bh = math.Max(bh, ys[b]+dhb)
	}
	return bw, bh
}

// initialTemp samples 30 perturbations of p, each rebuilt in the scratch
// state nb.
func initialTemp(p, nb *pair, rng *rand.Rand, eval func(*pair) float64) float64 {
	base := eval(p)
	var sum float64
	count := 0
	for i := 0; i < 30; i++ {
		nb.copyFrom(p)
		nb.perturb(rng)
		if d := math.Abs(eval(nb) - base); d > 0 {
			sum += d
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return (sum / float64(count)) / math.Log(1/0.9)
}
