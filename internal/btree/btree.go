// Package btree implements the Compact-2.5D baseline placer of the paper: a
// B*-tree floorplan representation packed with a contour structure and
// searched with a fast-SA-style annealing schedule, after Chen et al.
// ("Modern floorplanning based on B*-tree and fast simulated annealing",
// IEEE TCAD 2006). It produces the compact, wirelength-minimized placements
// that TAP-2.5D both compares against and uses as its initial placement
// (Section III-C2).
//
// Blocks are the chiplets inflated by the minimum gap w_gap, so adjacency in
// the packing automatically respects Eqn. (10); the packed floorplan is then
// centered on the interposer.
package btree

import (
	"fmt"
	"math"
	"math/rand"

	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
)

// Options configures the compact placer.
type Options struct {
	// Seed drives the annealer; the same seed reproduces the same placement.
	Seed int64
	// Steps is the number of SA perturbations (default 20000; the paper's
	// fast-SA converges in a comparable budget on 8-chiplet systems).
	Steps int
}

// wirelengthWeight and areaWeight blend the two objectives after
// normalization: Compact-2.5D primarily minimizes wirelength with area as
// tie-breaker, matching Section III-C2.
const (
	wirelengthWeight = 0.7
	areaWeight       = 0.3
)

// Result reports the compact placement and its metrics.
type Result struct {
	Placement chiplet.Placement
	// BBoxMM is the bounding box of the packed chiplets (with gap margins).
	BBoxMM geom.Rect
	// WirelengthMM is the wire-count-weighted Manhattan center-to-center
	// wirelength used as the SA objective (not the routed wirelength).
	WirelengthMM float64
}

// node is a structural B*-tree node. The block it carries is given by the
// tree's blk mapping, which keeps block swaps trivial and link rewiring
// local to detach/attach of leaves.
type node struct {
	parent, left, right int
}

// tree is a B*-tree over n blocks. The fields after w, h are scratch that
// pack and moveBlock reuse, so an anneal allocates nothing per step.
type tree struct {
	nodes []node
	blk   []int // node -> block
	pos   []int // block -> node (inverse of blk)
	root  int
	rot   []bool    // per block
	w, h  []float64 // per block, inflated, unrotated

	xs, ys, nodeX []float64 // pack's per-block corners and per-node x
	stack         []int     // pack's DFS stack
	slots         []slot    // moveBlock's free child slots
	sky           contour   // pack's skyline
}

// slot is a free child position: the left or right child of parent.
type slot struct {
	parent int
	left   bool
}

func newTree(n int, w, h []float64) *tree {
	t := &tree{
		nodes: make([]node, n),
		blk:   make([]int, n),
		pos:   make([]int, n),
		root:  0,
		rot:   make([]bool, n),
		w:     w,
		h:     h,
	}
	for i := range t.nodes {
		t.nodes[i] = node{parent: (i - 1) / 2, left: -1, right: -1}
		if i == 0 {
			t.nodes[i].parent = -1
		}
		if l := 2*i + 1; l < n {
			t.nodes[i].left = l
		}
		if r := 2*i + 2; r < n {
			t.nodes[i].right = r
		}
		t.blk[i] = i
		t.pos[i] = i
	}
	return t
}

// copyFrom makes t the same tree as src, reusing t's storage.
func (t *tree) copyFrom(src *tree) {
	t.nodes = append(t.nodes[:0], src.nodes...)
	t.blk = append(t.blk[:0], src.blk...)
	t.pos = append(t.pos[:0], src.pos...)
	t.root = src.root
	t.rot = append(t.rot[:0], src.rot...)
	t.w, t.h = src.w, src.h
}

// blockDims returns the (possibly rotated) dimensions of block b.
func (t *tree) blockDims(b int) (float64, float64) {
	if t.rot[b] {
		return t.h[b], t.w[b]
	}
	return t.w[b], t.h[b]
}

// swapBlocks exchanges the blocks carried by two nodes.
func (t *tree) swapBlocks(na, nb int) {
	ba, bb := t.blk[na], t.blk[nb]
	t.blk[na], t.blk[nb] = bb, ba
	t.pos[ba], t.pos[bb] = nb, na
}

// moveBlock relocates block b: it bubbles b down to a leaf node by swapping
// blocks along a random child path, splices that leaf out, and reattaches it
// at a random free child slot.
func (t *tree) moveBlock(b int, rng *rand.Rand) {
	nd := t.pos[b]
	for t.nodes[nd].left >= 0 || t.nodes[nd].right >= 0 {
		var ch int
		switch {
		case t.nodes[nd].left < 0:
			ch = t.nodes[nd].right
		case t.nodes[nd].right < 0:
			ch = t.nodes[nd].left
		case rng.Intn(2) == 0:
			ch = t.nodes[nd].left
		default:
			ch = t.nodes[nd].right
		}
		t.swapBlocks(nd, ch)
		nd = ch
	}
	// nd is a leaf carrying b; splice it out.
	p := t.nodes[nd].parent
	if p < 0 {
		// Single-node tree: nothing to move.
		return
	}
	if t.nodes[p].left == nd {
		t.nodes[p].left = -1
	} else {
		t.nodes[p].right = -1
	}
	t.nodes[nd].parent = -1

	// Reattach at a random free slot (excluding the detached node itself).
	slots := t.slots[:0]
	for j := range t.nodes {
		if j == nd {
			continue
		}
		if t.nodes[j].left < 0 {
			slots = append(slots, slot{j, true})
		}
		if t.nodes[j].right < 0 {
			slots = append(slots, slot{j, false})
		}
	}
	t.slots = slots
	s := slots[rng.Intn(len(slots))]
	t.nodes[nd].parent = s.parent
	if s.left {
		t.nodes[s.parent].left = nd
	} else {
		t.nodes[s.parent].right = nd
	}
}

// validate checks tree invariants (used by tests).
func (t *tree) validate() error {
	n := len(t.nodes)
	seen := make([]bool, n)
	count := 0
	var walk func(i, parent int) error
	walk = func(i, parent int) error {
		if i < 0 {
			return nil
		}
		if seen[i] {
			return fmt.Errorf("btree: node %d reached twice", i)
		}
		seen[i] = true
		count++
		if t.nodes[i].parent != parent {
			return fmt.Errorf("btree: node %d parent = %d, want %d", i, t.nodes[i].parent, parent)
		}
		if err := walk(t.nodes[i].left, i); err != nil {
			return err
		}
		return walk(t.nodes[i].right, i)
	}
	if err := walk(t.root, -1); err != nil {
		return err
	}
	if count != n {
		return fmt.Errorf("btree: tree reaches %d of %d nodes", count, n)
	}
	for b := range t.pos {
		if t.blk[t.pos[b]] != b {
			return fmt.Errorf("btree: blk/pos mapping inconsistent for block %d", b)
		}
	}
	return nil
}

// segment is a piece x0 <= x < x1 of the skyline at height y.
type segment struct {
	x0, x1, y float64
}

// contour is the packing skyline: segments covering [0, +inf) left to right.
// place builds the new skyline in next and swaps the two buffers.
type contour struct {
	segs, next []segment
}

// reset makes the skyline the empty floor, keeping its storage.
func (c *contour) reset() {
	c.segs = append(c.segs[:0], segment{0, math.Inf(1), 0})
}

// place drops a block of width w at x, returning its resting y, and raises
// the skyline over [x, x+w).
func (c *contour) place(x, w, h float64) float64 {
	x1 := x + w
	top := 0.0
	for _, s := range c.segs {
		if s.x1 <= x || s.x0 >= x1 {
			continue
		}
		if s.y > top {
			top = s.y
		}
	}
	newY := top + h
	c.next = c.next[:0]
	pushed := false
	for _, s := range c.segs {
		if s.x1 <= x || s.x0 >= x1 {
			c.push(s.x0, s.x1, s.y)
			continue
		}
		if s.x0 < x {
			c.push(s.x0, x, s.y)
		}
		if !pushed {
			c.push(x, x1, newY)
			pushed = true
		}
		if s.x1 > x1 {
			c.push(x1, s.x1, s.y)
		}
	}
	c.segs, c.next = c.next, c.segs
	return top
}

// push appends segment [a, b) at height y to the skyline under
// construction, merging it into the last segment when they meet at the same
// height.
func (c *contour) push(a, b, y float64) {
	if b <= a {
		return
	}
	if n := len(c.next); n > 0 && c.next[n-1].y == y && c.next[n-1].x1 == a {
		c.next[n-1].x1 = b
		return
	}
	c.next = append(c.next, segment{a, b, y})
}

// pack computes per-block lower-left corners of the inflated blocks. The
// returned slices are t's scratch, valid until t packs again.
func (t *tree) pack() (xs, ys []float64) {
	n := len(t.nodes)
	if len(t.xs) != n {
		t.xs = make([]float64, n) // per block
		t.ys = make([]float64, n)
		t.nodeX = make([]float64, n) // per node
	}
	xs, ys, nodeX := t.xs, t.ys, t.nodeX
	c := &t.sky
	c.reset()
	stack := append(t.stack[:0], t.root)
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd < 0 {
			continue
		}
		b := t.blk[nd]
		w, h := t.blockDims(b)
		var x float64
		if p := t.nodes[nd].parent; p >= 0 {
			pw, _ := t.blockDims(t.blk[p])
			if t.nodes[p].left == nd {
				x = nodeX[p] + pw // left child: right-adjacent
			} else {
				x = nodeX[p] // right child: stacked above
			}
		}
		nodeX[nd] = x
		xs[b] = x
		ys[b] = c.place(x, w, h)
		// Push right then left so the left subtree packs first.
		stack = append(stack, t.nodes[nd].right, t.nodes[nd].left)
	}
	t.stack = stack
	return xs, ys
}

func perturb(t *tree, rng *rand.Rand) {
	n := len(t.nodes)
	if n == 1 {
		t.rot[0] = !t.rot[0]
		return
	}
	switch rng.Intn(3) {
	case 0: // rotate a random block
		b := rng.Intn(n)
		t.rot[b] = !t.rot[b]
	case 1: // swap two nodes' blocks
		a, b := rng.Intn(n), rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		t.swapBlocks(a, b)
	default: // move a random block elsewhere in the tree
		t.moveBlock(rng.Intn(n), rng)
	}
}

// PlaceCompact runs the Compact-2.5D baseline on sys. The result is
// deterministic for a given Options.Seed.
func PlaceCompact(sys *chiplet.System, opt Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if opt.Steps < 0 {
		return nil, fmt.Errorf("btree: steps is %d; want 0 (the default) or more", opt.Steps)
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
	t := newTree(n, w, h)

	// Normalization scales from the initial tree.
	xs0, ys0 := t.pack()
	wlScale := math.Max(1, rawWirelength(sys, t, xs0, ys0))
	areaScale := math.Max(1, bboxArea(t, xs0, ys0))

	eval := func(tr *tree) float64 {
		xs, ys := tr.pack()
		bw, bh := bboxDims(tr, xs, ys)
		cost := wirelengthWeight*rawWirelength(sys, tr, xs, ys)/wlScale + areaWeight*bw*bh/areaScale
		// Fixed-outline (interposer) penalty.
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
	cur := t
	curCost := eval(cur)
	best, nb := new(tree), new(tree)
	best.copyFrom(cur)
	bestCost := curCost

	temp := estimateInitialTemp(cur, nb, rng, eval)
	decay := math.Pow(1e-4, 1/float64(steps)) // reach 1e-4 * T0 by the end

	for it := 0; it < steps; it++ {
		nb.copyFrom(cur)
		perturb(nb, rng)
		nbCost := eval(nb)
		d := nbCost - curCost
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
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
	bw, bh := bboxDims(best, xs, ys)
	if bw > sys.InterposerW+1e-9 || bh > sys.InterposerH+1e-9 {
		return nil, fmt.Errorf("btree: compact packing %.1fx%.1f mm exceeds the %gx%g mm interposer",
			bw, bh, sys.InterposerW, sys.InterposerH)
	}
	// Center the packing on the interposer and convert to die centers.
	dx := (sys.InterposerW - bw) / 2
	dy := (sys.InterposerH - bh) / 2
	p := chiplet.NewPlacement(n)
	for b := 0; b < n; b++ {
		dwb, dhb := best.blockDims(b)
		p.Centers[b] = geom.Point{X: xs[b] + dwb/2 + dx, Y: ys[b] + dhb/2 + dy}
		p.Rotated[b] = best.rot[b]
	}
	if err := sys.CheckPlacement(p); err != nil {
		return nil, fmt.Errorf("btree: packed placement invalid: %w", err)
	}
	return &Result{
		Placement:    p,
		BBoxMM:       geom.RectFromBounds(dx, dy, dx+bw, dy+bh),
		WirelengthMM: rawWirelength(sys, best, xs, ys),
	}, nil
}

// rawWirelength is the wire-count-weighted Manhattan center distance over
// all channels.
func rawWirelength(sys *chiplet.System, t *tree, xs, ys []float64) float64 {
	var wl float64
	for _, ch := range sys.Channels {
		wi, hi := t.blockDims(ch.Src)
		wj, hj := t.blockDims(ch.Dst)
		ci := geom.Point{X: xs[ch.Src] + wi/2, Y: ys[ch.Src] + hi/2}
		cj := geom.Point{X: xs[ch.Dst] + wj/2, Y: ys[ch.Dst] + hj/2}
		wl += float64(ch.Wires) * ci.Manhattan(cj)
	}
	return wl
}

func bboxDims(t *tree, xs, ys []float64) (float64, float64) {
	var bw, bh float64
	for b := range xs {
		dwb, dhb := t.blockDims(b)
		bw = math.Max(bw, xs[b]+dwb)
		bh = math.Max(bh, ys[b]+dhb)
	}
	return bw, bh
}

func bboxArea(t *tree, xs, ys []float64) float64 {
	bw, bh := bboxDims(t, xs, ys)
	return bw * bh
}

// estimateInitialTemp samples 30 perturbations of t, each rebuilt in the
// scratch tree nb.
func estimateInitialTemp(t, nb *tree, rng *rand.Rand, eval func(*tree) float64) float64 {
	base := eval(t)
	var sum float64
	count := 0
	for i := 0; i < 30; i++ {
		nb.copyFrom(t)
		perturb(nb, rng)
		if d := math.Abs(eval(nb) - base); d > 0 {
			sum += d
			count++
		}
	}
	if count == 0 {
		return 1
	}
	// Accept average uphill moves with ~0.9 probability initially, as in
	// fast-SA's high-temperature phase.
	return (sum / float64(count)) / math.Log(1/0.9)
}
