package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements a geometric multigrid V-cycle preconditioner for the
// structured layered grids behind the thermal conductance matrices. The stack
// is a fixed number of Nx×Ny planes (device layers, spreader, sink) and only
// the in-plane resolution grows with fidelity, so the hierarchy semi-coarsens:
// each level halves Nx and Ny and never merges layers. That matches the
// physics — vertical conductances (thin layers, large cell areas) dominate the
// lateral ones, and coupling a node tightly to its whole vertical column is
// exactly what the un-coarsened layer dimension preserves.
//
// Components, per level:
//
//   - cell-centered bilinear prolongation P (≤4 coarse parents per fine cell,
//     boundary weight folded onto the nearest parent so rows sum to 1 and the
//     constant vector — the near-nullspace of a conductance matrix — is
//     reproduced exactly), with restriction R = Pᵀ. P never mixes layers and
//     its weights depend only on the in-plane position, so it is stored once
//     per in-plane column and applied to all of a column's layers in one pass;
//   - Galerkin coarse operators A_c = Pᵀ·A·P, so every boundary term and
//     heterogeneous conductance is inherited rather than re-modeled. P
//     factors exactly into its in-plane axes, P = P_y ⊗ P_x, so A_c is
//     formed as P_yᵀ·(P_xᵀ·A·P_x)·P_y in two one-dimensional passes whose
//     intermediate rows live only in per-worker scratch (galerkinRow);
//   - vertical-line block Gauss-Seidel smoothing: one forward sweep before
//     and one backward sweep after the coarse correction, where each "point"
//     of the sweep is a whole vertical column whose in-column couplings are
//     solved exactly through their tridiagonal factorization (on the thermal
//     stacks the spreader and sink are wider than the interposer, so their
//     couplings mostly leave the column and the block is a device-layer line
//     plus point updates of the spreader and sink rows). Lines in the strong
//     (vertical) direction are the textbook smoother for this anisotropy —
//     point smoothers leave vertically-smooth, laterally-oscillatory error
//     untouched, and damped Jacobi additionally diverges outright on
//     Galerkin coarse operators that lose diagonal dominance (observed
//     Gershgorin bounds of 5-10 on real multi-chiplet stacks). Forward and
//     backward sweeps are A-adjoints of each other and block GS is
//     unconditionally A-norm convergent for SPD matrices, so the V-cycle is
//     symmetric positive definite with no damping parameter to tune;
//   - from grid 64 up (splitMinGrid), a two-block split of every level at
//     in-plane row ny/2: each block sweeps its own columns in the same
//     order and lags only its couplings across the cut, so the two blocks
//     of every pass of the cycle can run on two goroutines, and do when a
//     core is idle (claimCore). The forward and backward two-block sweeps
//     are still each other's A-adjoints. Below grid 64 block 1 is empty and
//     the sweeps are the lexicographic ones;
//   - coarsening while either in-plane size is at least 8, odd sizes to
//     ⌈n/2⌉ (the last coarse cell of an odd axis has one fine child fewer),
//     so every hierarchy ends at a plane of at most 7×7 columns, and a
//     Cholesky solve there, factored within the level's envelope
//     (envCholesky).
//
// Storage order: every smoothed level is numbered line-major, row c·layers+p
// for layer p of in-plane column c, so a line solve reads one contiguous run
// of rows, CSR entries, factors and vector entries rather than `layers` rows
// nx·ny apart. Apply permutes r in from, and z out to, the bound matrix's
// layer-major numbering once per cycle. The coarsest level keeps the
// layer-major numbering its Cholesky factor is formed in.
// Each row's entries are in ascending column order, so a smoothed-level row
// reads [earlier columns | own column | later columns] (rowSplit) and each
// pass of the cycle reads only the part it needs (forwardSweep, sweepDefect,
// backwardSweep).
//
// The expensive symbolic work — interpolation weights, coarse sparsity
// patterns — depends only on the grid geometry and the fine matrix pattern,
// both of which are shared by every evaluator replica of one placement flow
// and every service worker solving the same model. It is therefore built once
// per (geometry, pattern) pair and cached process-wide (mgStructCache); a
// Multigrid instance owns only the numeric state (operator values, smoother
// factors, the coarsest factorization, scratch), which Refresh brings up to
// date from the live fine values — recomputing only the rows a value change
// can reach, with the same bits a from-scratch pass would produce.

// GridGeometry describes the structured layered grid behind a matrix:
// Layers planes of Ny rows × Nx columns, with node (l, i, j) stored at index
// (l*Ny+i)*Nx + j — the thermal model's layout with Nx = Ny = grid.
type GridGeometry struct {
	Layers, Nx, Ny int
}

// Nodes returns the node count of the grid.
func (g GridGeometry) Nodes() int { return g.Layers * g.Nx * g.Ny }

// mgLevel is the immutable, shareable symbolic description of one hierarchy
// level: its dimensions and row numbering, its operator sparsity pattern,
// and the interpolation between this level and the next finer one (levels
// ≥ 1).
type mgLevel struct {
	nx, ny, n, layers int

	// line reports a line-major level (row c·layers + p for layer p of
	// in-plane column c = i·nx + j): every level but the coarsest, which is
	// layer-major (row p·nx·ny + c).
	line bool

	// Operator pattern in this level's numbering, rows in ascending column
	// order (level 0's is the bound matrix's, renumbered; src maps its slots
	// to the bound matrix's), and per-row entry slots: diagSlot, upSlot and
	// dnSlot are the value-slot indices of a row's diagonal and of its
	// couplings to the same column one layer up and one layer down (-1 when
	// absent), the line smoother's tridiagonal blocks. On line-major levels
	// split cuts each row's slots; skip reports an own-column entry that
	// skips a layer, which the line solve leaves on the right-hand side.
	rowPtr, col, src         []int32
	diagSlot, upSlot, dnSlot []int32
	split                    []rowSplit
	skip                     bool

	// Two-block split (see splitMinGrid). In-plane columns [0, cut) form
	// block 0 and [cut, nx·ny) block 1; cut is nx·ny, leaving block 1 empty,
	// in a hierarchy that is not split. The transfers halve every level's
	// columns at cut. Rows [xLo, xHi) hold every row with a coupling across
	// the cut; the range is empty in a one-block level.
	cut      int
	xLo, xHi int

	// Prolongation P from this (coarse) level to the next finer level, per
	// in-plane column: fine column f's ≤4 coarse parent columns and bilinear
	// weights are pCol/pW[pPtr[f]:pPtr[f+1]], and the same list serves every
	// layer. pt* is the transpose (restriction), indexed by coarse column,
	// children in ascending order.
	pPtr, pCol   []int32
	pW           []float64
	ptPtr, ptCol []int32
	ptW          []float64

	// The same P as one-dimensional factors, P = P_y ⊗ P_x, for the two-pass
	// Galerkin product (galerkinRow). The intermediate plane between the
	// passes has the finer level's ny rows and this level's nx columns, and
	// is numbered b<<bShift | q for layer q of in-plane column b, a
	// power-of-two layer stride that splits with a shift and a mask.
	// xPar maps each fine in-plane column to its ≤2 x-parents as the rows of
	// their layer 0 on the intermediate plane, and yPar each intermediate
	// column to its ≤2 y-parents as the rows of their layer 0 on this level;
	// xCh and yCh list each coarse x column's and y row's fine children.
	// bMax is the longest intermediate row, maxRow this level's longest
	// operator row.
	xPar, yPar   []parents2
	xCh, yCh     children1D
	bShift       uint
	bMax, maxRow int

	// Envelope of the Cholesky factor L (coarsest level only): row i of L
	// holds columns envFirst[i] … i at envPtr[i]:envPtr[i+1] of the factor,
	// envFirst[i] being the row's first column in the operator pattern, and
	// envLast[j] is the last row whose envelope reaches column j.
	envFirst, envPtr, envLast []int32
}

// parents2 is one fine position's ≤2 coarse parents along one axis, as row
// offsets: c[1] is -1 when the boundary weight is folded onto c[0].
type parents2 struct {
	c [2]int32
	w [2]float64
}

// children1D lists each coarse cell's fine children along one axis, in
// ascending order, with their interpolation weights: idx/w[ptr[c]:ptr[c+1]].
type children1D struct {
	ptr, idx []int32
	w        []float64
}

// rowSplit cuts a line-major row's slots, in ascending column order, into
// [cross lower | lower | own column | upper | cross upper] at lStart, lEnd,
// uStart and uEnd: its couplings to earlier columns of the other block, to
// earlier columns of its own block, to its own column, to later columns of
// its own block, and to later columns of the other block. Only block-1 rows
// have cross-lower slots and only block-0 rows cross-upper ones, so in a
// one-block level lStart and uEnd are the row's bounds.
type rowSplit struct{ lStart, lEnd, uStart, uEnd int32 }

// row returns the row of layer p of in-plane column c.
func (lev *mgLevel) row(p, c int) int {
	if lev.line {
		return c*lev.layers + p
	}
	return p*lev.nx*lev.ny + c
}

// pos is row's inverse: the layer and in-plane column of row i.
func (lev *mgLevel) pos(i int) (p, c int) {
	if lev.line {
		return i % lev.layers, i / lev.layers
	}
	nxy := lev.nx * lev.ny
	return i / nxy, i % nxy
}

// cols returns block h's in-plane columns [lo, hi).
func (lev *mgLevel) cols(h int) (lo, hi int) {
	if h == 0 {
		return 0, lev.cut
	}
	return lev.cut, lev.nx * lev.ny
}

// rows returns block h's rows [lo, hi) on a line-major level.
func (lev *mgLevel) rows(h int) (lo, hi int) {
	lo, hi = lev.cols(h)
	return lo * lev.layers, hi * lev.layers
}

// mgStructure is the full symbolic hierarchy for one (geometry, pattern)
// pair. It is immutable after construction and shared across Multigrid
// instances via mgStructCache.
type mgStructure struct {
	geo    GridGeometry
	levels []*mgLevel
}

// mgCacheKey identifies a symbolic hierarchy: the grid geometry plus a hash
// of the fine sparsity pattern (two matrices with equal geometry and pattern
// coarsen identically).
type mgCacheKey struct {
	layers, nx, ny, nnz int
	hash                uint64
}

// mgStructCacheMax bounds the process-wide symbolic cache. A placement flow
// or a worker pool reuses one geometry, so a handful of entries covers the
// working set, while each new interposer size or grid a long-lived service
// sees would otherwise pin its hierarchy (~4 MB at grid 64, ~16 MB at grid
// 128 on the eight-layer thermal stack) forever. Evicting an entry only costs
// a rebuild on its next use; live Multigrid instances keep their own
// reference.
const mgStructCacheMax = 4

// mgStructCache maps mgCacheKey to *mgStructure, evicting the oldest entry
// beyond mgStructCacheMax.
var mgStructCache struct {
	sync.Mutex
	m     map[mgCacheKey]*mgStructure
	order []mgCacheKey // insertion order, oldest first
}

// patternHash is FNV-1a over the CSR row pointers and column indices, mixed
// one int32 word at a time. It only keys the in-memory structure cache and is
// never persisted.
func patternHash(a *CSR) uint64 { return fnvWords(fnvWords(fnvOffset, a.RowPtr), a.Col) }

// FNV-1a parameters for fnvWords.
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvWords continues the FNV-1a hash h over words, one int32 word at a time.
func fnvWords(h uint64, words []int32) uint64 {
	for _, v := range words {
		h ^= uint64(uint32(v))
		h *= fnvPrime
	}
	return h
}

// canCoarsen reports whether an nx×ny plane is coarsened once more, to
// ⌈nx/2⌉×⌈ny/2⌉: while either size is at least 8, so the coarsest plane has
// at most 7×7 columns.
func canCoarsen(nx, ny int) bool { return max(nx, ny) >= 8 }

// interp1D returns the cell-centered linear interpolation of fine index f
// from a coarse axis of nc cells: the primary parent c0 = f/2 and, when it
// exists, the neighbor toward which cell f's center leans. At the boundary
// the neighbor weight is folded onto the primary parent (c1 = -1), keeping
// the row sum at 1 so constants interpolate exactly.
func interp1D(f, nc int) (c0 int, w0 float64, c1 int, w1 float64) {
	c0 = f / 2
	if f%2 == 0 {
		c1 = c0 - 1
	} else {
		c1 = c0 + 1
	}
	if c1 < 0 || c1 >= nc {
		return c0, 1, -1, 0
	}
	return c0, 0.75, c1, 0.25
}

// buildProlongation fills lev (the coarse level) with the per-column bilinear
// P between it and a fine plane of nxF×nyF cells, plus its transpose.
func buildProlongation(lev *mgLevel, nxF, nyF int) {
	nxC, nyC := lev.nx, lev.ny
	nF := nxF * nyF
	lev.pPtr = make([]int32, nF+1)
	lev.pCol = make([]int32, 0, 4*nF)
	lev.pW = make([]float64, 0, 4*nF)
	for i := 0; i < nyF; i++ {
		ic0, wi0, ic1, wi1 := interp1D(i, nyC)
		for j := 0; j < nxF; j++ {
			jc0, wj0, jc1, wj1 := interp1D(j, nxC)
			add := func(ic, jc int, w float64) {
				lev.pCol = append(lev.pCol, int32(ic*nxC+jc))
				lev.pW = append(lev.pW, w)
			}
			add(ic0, jc0, wi0*wj0)
			if jc1 >= 0 {
				add(ic0, jc1, wi0*wj1)
			}
			if ic1 >= 0 {
				add(ic1, jc0, wi1*wj0)
				if jc1 >= 0 {
					add(ic1, jc1, wi1*wj1)
				}
			}
			lev.pPtr[i*nxF+j+1] = int32(len(lev.pCol))
		}
	}

	// Transpose for restriction: coarse columns over fine columns, fine
	// columns ascending within each list (they are appended in fine order).
	nC := nxC * nyC
	count := make([]int32, nC+1)
	for _, c := range lev.pCol {
		count[c+1]++
	}
	for i := 0; i < nC; i++ {
		count[i+1] += count[i]
	}
	lev.ptPtr = append([]int32(nil), count...)
	lev.ptCol = make([]int32, len(lev.pCol))
	lev.ptW = make([]float64, len(lev.pW))
	next := append([]int32(nil), count[:nC]...)
	for f := 0; f < nF; f++ {
		for k := lev.pPtr[f]; k < lev.pPtr[f+1]; k++ {
			c := lev.pCol[k]
			p := next[c]
			lev.ptCol[p] = int32(f)
			lev.ptW[p] = lev.pW[k]
			next[c] = p + 1
		}
	}

	// One-dimensional factors. Every weight interp1D returns is an exact
	// binary fraction (1, 3/4 or 1/4), so the products above are exact and
	// P is exactly P_y ⊗ P_x.
	lev.xCh, lev.yCh = axisChildren(nxF, nxC), axisChildren(nyF, nyC)
	lev.bShift = uint(bits.Len(uint(lev.layers - 1)))
	lev.xPar = make([]parents2, nF)
	for i := 0; i < nyF; i++ {
		for j := 0; j < nxF; j++ {
			lev.xPar[i*nxF+j] = axisParents(j, nxC, i*nxC, 1, 1<<lev.bShift)
		}
	}
	lev.yPar = make([]parents2, nyF*nxC)
	cs := lev.row(0, 1)
	for i := 0; i < nyF; i++ {
		for J := 0; J < nxC; J++ {
			lev.yPar[i*nxC+J] = axisParents(i, nyC, J, nxC, cs)
		}
	}
}

// axisParents returns fine index f's ≤2 parents c on a coarse axis of nc
// cells, as the offsets (base + c·stride)·scale.
func axisParents(f, nc, base, stride, scale int) parents2 {
	c0, w0, c1, w1 := interp1D(f, nc)
	p := parents2{c: [2]int32{int32((base + c0*stride) * scale), -1}, w: [2]float64{w0, 0}}
	if c1 >= 0 {
		p.c[1], p.w[1] = int32((base+c1*stride)*scale), w1
	}
	return p
}

// axisChildren lists each cell of a coarse axis of nc cells with its fine
// children on an axis of nf cells, ascending: fine cells 2c-1 … 2c+2 lean
// on coarse cell c.
func axisChildren(nf, nc int) children1D {
	ch := children1D{ptr: make([]int32, 1, nc+1)}
	for c := 0; c < nc; c++ {
		for f := max(0, 2*c-1); f <= min(nf-1, 2*c+2); f++ {
			if c0, w0, c1, w1 := interp1D(f, nc); c0 == c {
				ch.idx, ch.w = append(ch.idx, int32(f)), append(ch.w, w0)
			} else if c1 == c {
				ch.idx, ch.w = append(ch.idx, int32(f)), append(ch.w, w1)
			}
		}
		ch.ptr = append(ch.ptr, int32(len(ch.idx)))
	}
	return ch
}

// coarsePattern sets lev's Galerkin sparsity pattern, in lev's numbering,
// from the line-major pattern of the next finer level and lev's
// interpolation: row I of A_c couples every coarse pair reachable through
// Pᵀ·A·P, in ascending order, found through the same two one-dimensional
// passes as the values (galerkinRow). A row's pattern is a set that reads
// only the finer level, so contiguous runs of rows go to min(GOMAXPROCS,
// n/galerkinGrainRows) workers, each with its own scratch and marker, and
// the runs are joined in row order: the pattern does not depend on the
// split.
func (lev *mgLevel) coarsePattern(fine *mgLevel) {
	lev.rowPtr = make([]int32, lev.n+1)
	w := runs(lev.n)
	parts, bMax := make([][]int32, w), make([]int, w)
	forRuns(w, lev.n, func(k, lo, hi int) { parts[k], bMax[k] = lev.coarseRows(fine, lo, hi) })
	lev.bMax = slices.Max(bMax)
	for I := 0; I < lev.n; I++ {
		lev.rowPtr[I+1] += lev.rowPtr[I]
	}
	lev.col = slices.Concat(parts...)
}

// coarseRows returns the concatenated patterns of rows [lo, hi), storing
// each row's length in lev.rowPtr[I+1], and the longest intermediate row
// they read. Every intermediate row is read by some coarse row.
func (lev *mgLevel) coarseRows(fine *mgLevel, lo, hi int) ([]int32, int) {
	g := takeGalerkin(lev, fine, false)
	defer galerkinPool.Put(g)
	ps, mask := lev.row(1, 0), int32(1)<<lev.bShift-1
	marker := make([]int32, lev.n)
	for i := range marker {
		marker[i] = -1
	}
	cols, bMax := make([]int32, 0, 27*(hi-lo)), 0
	for I := lo; I < hi; I++ {
		P, C := lev.pos(I)
		iy, J := C/lev.nx, C%lev.nx
		start := len(cols)
		for _, i := range lev.yCh.idx[lev.yCh.ptr[iy]:lev.yCh.ptr[iy+1]] {
			slot := g.ringRow(lev, fine, nil, P, int(i), J)
			bMax = max(bMax, len(g.bCol[slot]))
			for _, b := range g.bCol[slot] {
				for _, x := range lev.yPar[b>>lev.bShift].c {
					if x < 0 {
						break
					}
					if x += (b & mask) * int32(ps); marker[x] != int32(I) {
						marker[x] = int32(I)
						cols = append(cols, x)
					}
				}
			}
		}
		slices.Sort(cols[start:])
		lev.rowPtr[I+1] = int32(len(cols) - start)
	}
	return cols, bMax
}

// galerkinScratch is one worker's scratch for the two-pass Galerkin product
// of one level (galerkinRow): a dense accumulator for either pass, sized
// for the intermediate plane, which is larger than the level (acc, all zero
// between rows), the stamps that find an intermediate row's first touch of
// a column (mark, stamp, with tmp for the row's terms), and a ring of
// intermediate rows.
// Slot ((i&3)·nx + J)·layers + p holds row (p, i, J) when tag[slot] is i:
// its columns in bCol[slot] and, in a numeric pass, its values in
// bVal[slot], views of bMax entries into colBuf and valBuf. A coarse y row I
// reads the fine y rows 2I-1 … 2I+2, which are distinct mod 4, and row I+1
// reuses two of them, so a worker that walks its rows in ascending order
// computes each intermediate row once. Scratch is pooled process-wide: no
// intermediate row outlives the pass that made it.
type galerkinScratch struct {
	acc       []float64
	mark, tmp []int32
	stamp     int32
	tag       []int32
	bCol      [][]int32
	bVal      [][]float64
	colBuf    []int32
	valBuf    []float64
}

var galerkinPool = sync.Pool{New: func() any { return new(galerkinScratch) }}

// takeGalerkin returns pooled scratch sized for lev's Galerkin rows from the
// finer level fine, with an empty ring; numeric sizes the value buffers too.
// A pattern pass (lev.bMax not known yet) grows each slot on its own.
func takeGalerkin(lev, fine *mgLevel, numeric bool) *galerkinScratch {
	g := galerkinPool.Get().(*galerkinScratch)
	nb := fine.ny * lev.nx << lev.bShift // ≥ 2·lev.n
	g.acc = resize(g.acc, nb)
	g.mark = resize(g.mark, nb)
	slots := 4 * lev.nx * lev.layers
	g.tag = resize(g.tag, slots)
	for i := range g.tag {
		g.tag[i] = -1
	}
	g.bCol = resize(g.bCol, slots)
	if !numeric {
		clear(g.bCol) // views from a numeric pass may overlap
	} else {
		g.tmp = resize(g.tmp, 8*fine.maxRow)
		g.bVal = resize(g.bVal, slots)
		g.colBuf = resize(g.colBuf, slots*lev.bMax)
		g.valBuf = resize(g.valBuf, slots*lev.bMax)
		for k := range slots {
			lo, hi := k*lev.bMax, (k+1)*lev.bMax
			g.bCol[k], g.bVal[k] = g.colBuf[lo:lo:hi], g.valBuf[lo:lo:hi]
		}
	}
	return g
}

// resize returns s with length n, reallocated (zeroed) only when too short,
// so a zero-invariant buffer stays all zero.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ringRow returns the ring slot of intermediate row (p, i, J) of level lev,
// computing the row into it unless the ring already holds it. fv is the
// finer level's values, nil for the pattern alone.
func (g *galerkinScratch) ringRow(lev, fine *mgLevel, fv []float64, p, i, J int) int {
	slot := ((i&3)*lev.nx+J)*lev.layers + p
	if g.tag[slot] != int32(i) {
		g.tag[slot] = int32(i)
		if g.stamp == math.MaxInt32 {
			clear(g.mark[:cap(g.mark)]) // a later resize may expose the rest
			g.stamp = 0
		}
		g.stamp++
		if fv == nil {
			g.bCol[slot] = g.bPattern(lev, fine, p, i, J, g.bCol[slot][:0])
		} else {
			g.bCol[slot], g.bVal[slot] = g.bRow(lev, fine, fv, p, i, J, g.bCol[slot][:0], g.bVal[slot][:0])
		}
	}
	return slot
}

// bRow appends intermediate row (p, i, J) of (I ⊗ P_x)ᵀ·A·(I ⊗ P_x), the
// finer level's rows (p, i, j) for the x-children j of J, each x-coarsened
// on its columns, to cols and its values, from the finer level's values fv,
// to vals. Columns are in first-touch order and every value sums its terms
// in a fixed order, so the row is a fixed function of fv.
func (g *galerkinScratch) bRow(lev, fine *mgLevel, fv []float64, p, i, J int, cols []int32, vals []float64) ([]int32, []float64) {
	stamp, mark, acc, xPar := g.stamp, g.mark, g.acc, lev.xPar
	layers := uint32(lev.layers)
	ch := lev.xCh.ptr[J] // children ch … ch+len-1
	// Every term may be a first touch, so each is written to tmp (room for
	// two terms per entry of ≤4 rows) unconditionally and kept by a
	// branch-free count.
	tmp, n := g.tmp, 0
	for k, j := range lev.xCh.idx[ch:lev.xCh.ptr[J+1]] {
		wj := lev.xCh.w[int(ch)+k]
		f := (i*fine.nx+int(j))*lev.layers + p
		lo, hi := fine.rowPtr[f], fine.rowPtr[f+1]
		fcols, fvals := fine.col[lo:hi], fv[lo:hi]
		fvals = fvals[:len(fcols)]
		for s, fj := range fcols {
			v := wj * fvals[s]
			par, q := &xPar[uint32(fj)/layers], int32(uint32(fj)%layers)
			x := par.c[0] + q
			tmp[n] = x
			if mark[x] != stamp {
				n++
			}
			mark[x] = stamp
			acc[x] += v * par.w[0]
			if x = par.c[1]; x >= 0 {
				x += q
				tmp[n] = x
				if mark[x] != stamp {
					n++
				}
				mark[x] = stamp
				acc[x] += v * par.w[1]
			}
		}
	}
	cols = append(cols, tmp[:n]...)
	for _, x := range tmp[:n] {
		vals = append(vals, acc[x])
		acc[x] = 0
	}
	return cols, vals
}

// bPattern appends the columns of intermediate row (p, i, J), in bRow's
// order, to cols.
func (g *galerkinScratch) bPattern(lev, fine *mgLevel, p, i, J int, cols []int32) []int32 {
	layers := uint32(lev.layers)
	for _, j := range lev.xCh.idx[lev.xCh.ptr[J]:lev.xCh.ptr[J+1]] {
		f := (i*fine.nx+int(j))*lev.layers + p
		for _, fj := range fine.col[fine.rowPtr[f]:fine.rowPtr[f+1]] {
			q := int32(uint32(fj) % layers)
			for _, x := range lev.xPar[uint32(fj)/layers].c {
				if x < 0 {
					break
				}
				if x += q; g.mark[x] != g.stamp {
					g.mark[x] = g.stamp
					cols = append(cols, x)
				}
			}
		}
	}
	return cols
}

// finePattern sets level 0's pattern from the bound matrix a: a's rows
// renumbered into lev's numbering and sorted into ascending column order,
// with src recording each entry's slot in a.
func (lev *mgLevel) finePattern(a *CSR) {
	nxy := lev.nx * lev.ny
	perm := make([]int32, lev.n) // layer-major row → lev's row
	for p := 0; p < lev.layers; p++ {
		for c := 0; c < nxy; c++ {
			perm[p*nxy+c] = int32(lev.row(p, c))
		}
	}
	lev.rowPtr = make([]int32, lev.n+1)
	for li, i := range perm {
		lev.rowPtr[i+1] = a.RowPtr[li+1] - a.RowPtr[li]
	}
	for i := 0; i < lev.n; i++ {
		lev.rowPtr[i+1] += lev.rowPtr[i]
	}
	lev.col = make([]int32, len(a.Col))
	lev.src = make([]int32, len(a.Col))
	for li, i := range perm {
		lrow, cols := a.Col[a.RowPtr[li]:a.RowPtr[li+1]], lev.col[lev.rowPtr[i]:lev.rowPtr[i+1]]
		for k, lj := range lrow {
			cols[k] = perm[lj]
		}
		slices.Sort(cols)
		for k, j := range cols {
			s := slices.IndexFunc(lrow, func(lj int32) bool { return perm[lj] == j })
			lev.src[lev.rowPtr[i]+int32(k)] = a.RowPtr[li] + int32(s)
		}
	}
}

// findSlots records every row's diagonal and vertical-coupling slots and,
// on line-major levels, its own-column slots and whether any own-column
// entry skips a layer.
func (lev *mgLevel) findSlots() {
	lev.diagSlot = make([]int32, lev.n)
	lev.upSlot = make([]int32, lev.n)
	lev.dnSlot = make([]int32, lev.n)
	if lev.line {
		lev.split = make([]rowSplit, lev.n)
	}
	cutRow := int32(lev.cut * lev.layers)
	lev.xLo, lev.xHi = int(cutRow), int(cutRow)
	ps := int32(lev.row(1, 0)) // row stride between layers
	for i := range lev.diagSlot {
		lo, cols := lev.rowPtr[i], lev.col[lev.rowPtr[i]:lev.rowPtr[i+1]]
		p, c := lev.pos(i)
		first, end := int32(lev.row(0, c)), int32(lev.row(lev.layers-1, c)+1) // own column, if line-major
		lev.diagSlot[i], lev.upSlot[i], lev.dnSlot[i] = -1, -1, -1
		for k, j := range cols {
			switch d := j - int32(i); {
			case d == 0:
				lev.diagSlot[i] = lo + int32(k)
			case d == ps && p+1 < lev.layers:
				lev.upSlot[i] = lo + int32(k)
			case d == -ps && p > 0:
				lev.dnSlot[i] = lo + int32(k)
			case lev.line && first <= j && j < end:
				lev.skip = true
			}
		}
		if lev.line {
			e, _ := slices.BinarySearch(cols, first)
			u, _ := slices.BinarySearch(cols, end)
			x, _ := slices.BinarySearch(cols, cutRow)
			sp := rowSplit{lStart: lo, lEnd: lo + int32(e), uStart: lo + int32(u), uEnd: lev.rowPtr[i+1]}
			if int32(i) >= cutRow {
				sp.lStart = lo + int32(x)
			} else {
				sp.uEnd = lo + int32(x)
			}
			if sp.lStart > lo || sp.uEnd < lev.rowPtr[i+1] {
				lev.xLo, lev.xHi = min(lev.xLo, i), max(lev.xHi, i+1)
			}
			lev.split[i] = sp
		}
	}
}

// mgStructureFor returns the shared symbolic hierarchy for (a, geo), building
// and caching it on first use. The build runs under the cache lock, so
// replicas that start together build a hierarchy once and share it.
func mgStructureFor(a *CSR, geo GridGeometry) *mgStructure {
	key := mgCacheKey{layers: geo.Layers, nx: geo.Nx, ny: geo.Ny, nnz: a.NNZ(), hash: patternHash(a)}
	c := &mgStructCache
	c.Lock()
	defer c.Unlock()
	if s, ok := c.m[key]; ok {
		return s
	}
	s := buildMGStructure(a, geo)
	if c.m == nil {
		c.m = make(map[mgCacheKey]*mgStructure)
	}
	c.m[key] = s
	c.order = append(c.order, key)
	if len(c.order) > mgStructCacheMax {
		delete(c.m, c.order[0])
		c.order = slices.Delete(c.order, 0, 1)
	}
	return s
}

// buildMGStructure coarsens (a, geo) into a symbolic hierarchy, every level's
// pattern in the level's own numbering.
func buildMGStructure(a *CSR, geo GridGeometry) *mgStructure {
	s := &mgStructure{geo: geo}
	nx, ny := geo.Nx, geo.Ny
	split := geo.Nx >= splitMinGrid && geo.Ny >= splitMinGrid
	var fine *mgLevel
	for {
		lev := &mgLevel{nx: nx, ny: ny, n: geo.Layers * nx * ny, layers: geo.Layers, line: canCoarsen(nx, ny), cut: nx * ny}
		if split {
			lev.cut = nx * (ny / 2)
		}
		if fine == nil {
			lev.finePattern(a)
		} else {
			buildProlongation(lev, fine.nx, fine.ny)
			lev.coarsePattern(fine)
		}
		lev.findSlots()
		for i := range lev.n {
			lev.maxRow = max(lev.maxRow, int(lev.rowPtr[i+1]-lev.rowPtr[i]))
		}
		s.levels = append(s.levels, lev)
		if !lev.line {
			lev.envelope()
			return s
		}
		fine = lev
		nx, ny = (nx+1)/2, (ny+1)/2
	}
}

// envelope sets the envelope of the coarsest level's Cholesky factor from
// its (symmetric) operator pattern. Cholesky fills in only within it: an
// entry of L left of its row's first pattern column is exactly zero.
func (lev *mgLevel) envelope() {
	lev.envFirst = make([]int32, lev.n)
	lev.envPtr = make([]int32, lev.n+1)
	lev.envLast = make([]int32, lev.n)
	for i := range lev.n {
		f := int32(i)
		if lo := lev.rowPtr[i]; lo < lev.rowPtr[i+1] {
			f = min(f, lev.col[lo])
		}
		lev.envFirst[i] = f
		lev.envPtr[i+1] = lev.envPtr[i] + int32(i) - f + 1
		for j := f; j <= int32(i); j++ {
			lev.envLast[j] = int32(i)
		}
	}
}

// mgLevelData is the per-instance numeric state of one level, in the level's
// numbering: the operator (level 0 snapshots the bound fine matrix's values
// at Refresh; coarser levels own Galerkin values), the line smoother's
// per-column tridiagonal LDLᵀ factors (lfac holds the unit-lower multiplier
// of each row toward the layer below, dinv the inverse pivots; both nil on
// the coarsest level, which is never smoothed), and the rows the current
// Refresh recomputes.
type mgLevelData struct {
	a          *CSR
	lfac, dinv []float64
	dirty      []bool
}

// mgCycle is the scratch one V-cycle writes: per level, r and z for the
// level's defect and correction (level 0 holds the permuted r and z of
// Apply) and t for the residual (every level but the coarsest), plus line,
// one column's values (Layers long) per block for line solves and
// transfers. A forked cycle also hands its passes to a helper
// through pass, posted and done (see run).
type mgCycle struct {
	r, z, t [][]float64
	line    [2][]float64

	forked       bool
	pass         func(h int)
	posted, done atomic.Uint32
}

// galerkinGrainRows is the fewest marked rows of one level that Refresh
// hands a worker of its own. An SA move marks a few hundred rows per level
// at grid 64, which stay serial; a full refresh marks every row and runs on
// every core.
const galerkinGrainRows = 256

// runs returns how many workers share n rows: min(GOMAXPROCS,
// n/galerkinGrainRows), at least one.
func runs(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n/galerkinGrainRows)) }

// forRuns splits [0, n) into w contiguous runs and calls fn(k, lo, hi) for
// run k, on w goroutines when w > 1 and on the caller otherwise, returning
// when every run is done. Work whose runs each write only their own output
// gives the same result for every w.
func forRuns(w, n int, fn func(k, lo, hi int)) {
	if w == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for k := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k, k*n/w, (k+1)*n/w)
		}()
	}
	wg.Wait()
}

// Multigrid is a geometric multigrid V-cycle over a bound matrix,
// implementing Preconditioner. The bound matrix's values may change freely
// between solves (the thermal delta-assembly path rewrites them in place);
// call Refresh to fold the current values into the coarse operators — until
// then the cycle preconditions with the values of the previous Refresh,
// which affects CG's iteration count but never its answer.
//
// A Multigrid is not safe for concurrent use: every V-cycle writes the one
// scratch set of its instance, so Apply and Refresh must not overlap with
// each other or themselves. Concurrent solves use an instance each; they
// share the symbolic skeleton, which is cached process-wide across
// instances with the same geometry and sparsity pattern, and the idle-core
// count that decides whether a cycle forks (claimCore).
type Multigrid struct {
	s *mgStructure
	a *CSR

	lv   []mgLevelData
	chol []float64 // Cholesky factor of the coarsest level, within its envelope
	rows []int32   // one level's marked rows, Refresh scratch
	cyc  *mgCycle  // V-cycle scratch, allocated by the first Apply

	// needFull makes the next Refresh recompute every row: set for a fresh
	// instance and by a failed Refresh, whose partial updates the row marks
	// no longer describe.
	needFull bool

	cycles, setups int64
	forks          int64 // cycles that ran block 1 on a helper
}

// NewMultigrid builds a V-cycle preconditioner for a, whose rows must be laid
// out as geo describes. The symbolic hierarchy is reused from the
// process-wide cache when an identical (geometry, pattern) pair was built
// before; the numeric state is initialized from a's current values (an
// initial, full Refresh is included).
func NewMultigrid(a *CSR, geo GridGeometry) (*Multigrid, error) {
	if geo.Layers <= 0 || geo.Nx <= 0 || geo.Ny <= 0 {
		return nil, fmt.Errorf("sparse: multigrid geometry %+v not positive", geo)
	}
	if geo.Nodes() != a.N {
		return nil, fmt.Errorf("sparse: multigrid geometry %+v has %d nodes, matrix has %d rows", geo, geo.Nodes(), a.N)
	}
	s := mgStructureFor(a, geo)
	mg := &Multigrid{
		s:        s,
		a:        a,
		lv:       make([]mgLevelData, len(s.levels)),
		needFull: true,
	}
	for l, lev := range s.levels {
		// Level 0 snapshots the bound matrix's values rather than aliasing
		// them: Refresh copies them in, so in-place updates to the bound
		// matrix between refreshes leave the whole hierarchy consistently
		// stale. Mixing live level-0 values with stale coarse operators and
		// smoother factors can lose positive definiteness. The snapshot is
		// also what Refresh diffs against to find the rows that changed.
		d := &mg.lv[l]
		d.a = &CSR{N: lev.n, RowPtr: lev.rowPtr, Col: lev.col, Val: make([]float64, len(lev.col))}
		if lev.line { // the coarsest level is solved by its Cholesky factor
			d.lfac = make([]float64, lev.n)
			d.dinv = make([]float64, lev.n)
		}
		d.dirty = make([]bool, lev.n)
	}
	last := s.levels[len(s.levels)-1]
	mg.chol = make([]float64, last.envPtr[last.n])
	if err := mg.Refresh(); err != nil {
		return nil, err
	}
	return mg, nil
}

// Levels returns the hierarchy depth (1 means no coarsening was possible and
// the "cycle" is just the coarsest-level solve).
func (mg *Multigrid) Levels() int { return len(mg.lv) }

// Cycles returns the number of V-cycles applied since construction.
func (mg *Multigrid) Cycles() int64 { return mg.cycles }

// Setups returns the number of successful Refresh passes (including the
// constructor's).
func (mg *Multigrid) Setups() int64 { return mg.setups }

// Operator returns level l's operator as of the last Refresh; its plane
// halves Nx and Ny once per level, odd sizes to ⌈n/2⌉. Its rows are
// line-major (row c·Layers + p for layer p of in-plane column c) on every
// level but the coarsest, which is layer-major. The matrix is the
// hierarchy's own and must not be modified.
func (mg *Multigrid) Operator(l int) *CSR { return mg.lv[l].a }

// Refresh brings the numeric hierarchy up to date with the bound matrix's
// current values. It recomputes only what a changed value can reach:
//
//   - the fine rows whose values differ, bit for bit, from the level-0
//     snapshot (only those rows are copied in);
//   - on each coarser level, the parents of the previous level's changed
//     rows — a Galerkin row reads only its fine children's rows — and their
//     Galerkin values;
//   - the inverse diagonals of changed rows, the line-smoother factors of
//     columns holding a changed row, and the coarsest factorization when its
//     level has a changed row.
//
// Every recomputed quantity is a fixed-order function of its inputs, and the
// ones skipped have inputs that did not change, so the result is bit-identical
// to a from-scratch refresh — and preconditioned iteration counts are
// reproducible across runs. The first Refresh (the constructor's) and the one
// after a failed Refresh recompute every row. A failed Refresh leaves the
// hierarchy unusable until the next successful one.
func (mg *Multigrid) Refresh() error {
	full := mg.needFull
	mg.needFull = true // cleared only by a successful pass
	mg.markFine(full)
	for l := 1; l < len(mg.lv); l++ {
		mg.markParents(l)
		mg.galerkinLevel(l)
	}
	for l := range mg.lv {
		if err := mg.refreshSmoother(l); err != nil {
			return err
		}
	}
	last := len(mg.lv) - 1
	if slices.Contains(mg.lv[last].dirty, true) {
		if err := envCholesky(mg.lv[last].a, mg.s.levels[last], mg.chol); err != nil {
			return fmt.Errorf("sparse: multigrid coarsest level: %w", err)
		}
	}
	mg.needFull = false
	mg.setups++
	return nil
}

// markFine marks the fine rows whose bound values differ from the level-0
// snapshot (every row when full) and copies those rows into the snapshot,
// gathering each slot through the level-0 slot map.
func (mg *Multigrid) markFine(full bool) {
	lev := mg.s.levels[0]
	snap, live, dirty := mg.lv[0].a.Val, mg.a.Val, mg.lv[0].dirty
	forRuns(runs(len(dirty)), len(dirty), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row, src := snap[lev.rowPtr[i]:lev.rowPtr[i+1]], lev.src[lev.rowPtr[i]:]
			src = src[:len(row)]
			changed := full
			for k := 0; k < len(row) && !changed; k++ {
				changed = math.Float64bits(row[k]) != math.Float64bits(live[src[k]])
			}
			if changed {
				for k, j := range src {
					row[k] = live[j]
				}
			}
			dirty[i] = changed
		}
	})
}

// markParents marks the rows of level l that have a marked child on level
// l-1: exactly the Galerkin rows whose inputs changed. Since P = P_y ⊗ P_x
// these are the y-parents of the intermediate rows whose x-children
// changed, and galerkinRow recomputes each from freshly computed
// intermediate rows.
func (mg *Multigrid) markParents(l int) {
	lev, fine, dirty := mg.s.levels[l], mg.s.levels[l-1], mg.lv[l].dirty
	clear(dirty)
	if !slices.Contains(mg.lv[l-1].dirty, false) {
		for i := range dirty { // every row has a child
			dirty[i] = true
		}
		return
	}
	for f, changed := range mg.lv[l-1].dirty {
		if changed {
			p, c := fine.pos(f)
			for q := lev.pPtr[c]; q < lev.pPtr[c+1]; q++ {
				dirty[lev.row(p, int(lev.pCol[q]))] = true
			}
		}
	}
}

// refreshSmoother checks the diagonals of level l's marked rows and, on a
// smoothed level, refactors the line-smoother blocks of every column holding
// a marked row.
func (mg *Multigrid) refreshSmoother(l int) error {
	lev, d := mg.s.levels[l], &mg.lv[l]
	for i, slot := range lev.diagSlot {
		if !d.dirty[i] {
			continue
		}
		var v float64
		if slot >= 0 {
			v = d.a.Val[slot]
		}
		if v <= 0 {
			p, c := lev.pos(i)
			return fmt.Errorf("sparse: multigrid level %d has non-positive diagonal %g at layer %d column %d; matrix not SPD", l, v, p, c)
		}
	}
	if !lev.line {
		return nil
	}
	// Factor each vertical column's tridiagonal block (diagonal plus the
	// up/down couplings) as LDLᵀ for the line smoother. The blocks are
	// principal submatrices of an SPD operator, so positive pivots are
	// guaranteed in exact arithmetic; a non-positive one means the operator
	// itself lost definiteness. A block reads only its own column's rows, so
	// runs of columns factor in parallel, and the first run's error is the
	// one a serial sweep would meet first.
	nxy := lev.nx * lev.ny
	w := runs(lev.n)
	errs := make([]error, w)
	forRuns(w, nxy, func(k, lo, hi int) { errs[k] = mg.factorLines(l, lo, hi) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// factorLines refactors the line-smoother blocks of level l's in-plane
// columns [lo, hi) that hold a marked row, in column order, and returns the
// first non-positive pivot as an error.
func (mg *Multigrid) factorLines(l, lo, hi int) error {
	lev, d := mg.s.levels[l], &mg.lv[l]
	for c := lo; c < hi; c++ {
		changed := false
		for p := 0; p < lev.layers && !changed; p++ {
			changed = d.dirty[lev.row(p, c)]
		}
		if !changed {
			continue
		}
		prev := 0.0
		for p := 0; p < lev.layers; p++ {
			i := lev.row(p, c)
			piv := d.a.Val[lev.diagSlot[i]]
			d.lfac[i] = 0
			if p > 0 {
				if s := lev.upSlot[lev.row(p-1, c)]; s >= 0 {
					m := d.a.Val[s] * prev
					d.lfac[i] = m
					piv -= m * d.a.Val[s]
				}
			}
			if piv <= 0 {
				return fmt.Errorf("sparse: multigrid level %d line pivot %g <= 0 at layer %d column %d; matrix not SPD", l, piv, p, c)
			}
			prev = 1 / piv
			d.dinv[i] = prev
		}
	}
	return nil
}

// galerkinLevel recomputes level l's marked rows. A row reads only level
// l-1 and writes only its own slots, so contiguous runs of the marked rows
// go to min(GOMAXPROCS, marked/galerkinGrainRows) workers, each with its own
// scratch, and the values do not depend on the split.
func (mg *Multigrid) galerkinLevel(l int) {
	rows := mg.rows[:0]
	for I, dirty := range mg.lv[l].dirty {
		if dirty {
			rows = append(rows, int32(I))
		}
	}
	mg.rows = rows
	if len(rows) == 0 {
		return
	}
	forRuns(runs(len(rows)), len(rows), func(_, lo, hi int) {
		g := takeGalerkin(mg.s.levels[l], mg.s.levels[l-1], true)
		defer galerkinPool.Put(g)
		for _, I := range rows[lo:hi] {
			mg.galerkinRow(l, int(I), g)
		}
	})
}

// galerkinRow recomputes row (P, I, J) of level l's operator as
// (P_yᵀ·B·P_y)[row,:], where B = (I ⊗ P_x)ᵀ·A·(I ⊗ P_x) is the finer level's
// operator x-coarsened on both sides: the row's ≤4 intermediate rows
// (P, i, J) for the y-children i of I come from g's ring, and then each of
// their entries is scattered onto its ≤2 y-parents in the dense workspace
// g.acc, which is gathered back into the (equal-by-construction) pattern
// slots and re-zeroed. P = P_y ⊗ P_x, so this is Pᵀ·A·P with ≤2 parents per entry in
// each pass where the direct product has 4 per entry and 4×4 children per
// row. Serial and in fixed order, hence deterministic, and independent of
// every other row and of which rows the ring already holds.
func (mg *Multigrid) galerkinRow(l, I int, g *galerkinScratch) {
	lev, fineLev := mg.s.levels[l], mg.s.levels[l-1]
	fv, coarse := mg.lv[l-1].a.Val, mg.lv[l].a
	ps, mask := lev.row(1, 0), int32(1)<<lev.bShift-1
	ws := g.acc
	P, C := lev.pos(I)
	iy, J := C/lev.nx, C%lev.nx
	lo, hi := lev.yCh.ptr[iy], lev.yCh.ptr[iy+1]
	var slots [4]int // the intermediate rows come first: they use acc too
	for q := lo; q < hi; q++ {
		slots[q-lo] = g.ringRow(lev, fineLev, fv, P, int(lev.yCh.idx[q]), J)
	}
	for q := lo; q < hi; q++ {
		wi := lev.yCh.w[q]
		cols, vals := g.bCol[slots[q-lo]], g.bVal[slots[q-lo]]
		vals = vals[:len(cols)]
		for k, b := range cols {
			v := wi * vals[k]
			par, off := &lev.yPar[b>>lev.bShift], int(b&mask)*ps
			ws[off+int(par.c[0])] += v * par.w[0]
			if c := par.c[1]; c >= 0 {
				ws[off+int(c)] += v * par.w[1]
			}
		}
	}
	for k := coarse.RowPtr[I]; k < coarse.RowPtr[I+1]; k++ {
		J := coarse.Col[k]
		coarse.Val[k] = ws[J]
		ws[J] = 0
	}
}

// Apply runs one V-cycle: z ≈ A⁻¹·r. It implements Preconditioner. r and z
// are in the bound matrix's layer-major numbering and are permuted into and
// out of level 0's.
func (mg *Multigrid) Apply(z, r []float64) {
	mg.cycles++
	if mg.cyc == nil {
		mg.cyc = mg.newCycle()
	}
	c := mg.cyc
	lev, r0, z0 := mg.s.levels[0], c.r[0], c.z[0]
	nxy := lev.nx * lev.ny
	busy.Add(1)
	defer busy.Add(-1)
	if lev.cut < nxy && claimCore() {
		mg.forks++
		c.fork()
		defer c.join()
	}
	cs, ps := lev.row(0, 1), lev.row(1, 0)
	c.run(func(h int) {
		lo, hi := lev.cols(h)
		for p := 0; p < lev.layers; p++ {
			for i := lo; i < hi; i++ {
				r0[i*cs+p*ps] = r[p*nxy+i]
			}
		}
	})
	mg.vcycle(c, 0)
	c.run(func(h int) {
		lo, hi := lev.cols(h)
		for p := 0; p < lev.layers; p++ {
			for i := lo; i < hi; i++ {
				z[p*nxy+i] = z0[i*cs+p*ps]
			}
		}
	})
}

// splitMinGrid is the smallest in-plane grid, in both directions, whose
// hierarchy is split into two blocks. The split is a fixed rule on the
// geometry, so it never depends on GOMAXPROCS and neither do the bits. It
// lags the couplings across the cut, which cost one cold CG iteration on
// one of four thermal stacks at grid 64, so it starts at the paper grid,
// where a lone forked cycle takes about half the time of one run serially;
// smaller grids keep the one-block cycle and its bits.
const splitMinGrid = 64

// busy counts the goroutines of this process that run V-cycle passes, over
// every Multigrid: each cycle's caller and, while it is forked, its helper.
var busy atomic.Int32

// claimCore reserves a core for a split cycle's helper and reports whether
// it got one: it does while busy, the caller included, is below
// GOMAXPROCS. Two flows solving at once on two cores therefore each run
// both blocks in order, and a lone flow's cycle runs them on both cores.
// The core goes back at join. Which goroutine runs a block changes no bit,
// so the gate never moves the answer.
func claimCore() bool {
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		n := busy.Load()
		if n >= procs {
			return false
		}
		if busy.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// spinPolls is how many times a worker polls for the other half before it
// also yields its processor on every poll.
const spinPolls = 1 << 10

// fork starts the helper goroutine that runs block 1 of every pass of c
// until join. Without it both blocks run on the calling goroutine; which
// goroutine runs a block changes no bit.
func (c *mgCycle) fork() {
	c.forked = true
	c.posted.Store(0)
	c.done.Store(0)
	go c.help()
}

// join stops the helper that fork started and releases its core.
func (c *mgCycle) join() {
	c.run(nil)
	c.forked = false
	busy.Add(-1)
}

// run runs one pass of the cycle over both blocks and returns when both are
// done: block 0 on the calling goroutine and block 1 on the helper when c is
// forked, both in order on the caller otherwise. A nil pass stops the
// helper.
func (c *mgCycle) run(pass func(h int)) {
	if !c.forked {
		pass(0)
		pass(1)
		return
	}
	c.pass = pass
	seq := c.posted.Add(1)
	if pass != nil {
		pass(0)
	}
	for n := 0; c.done.Load() != seq; n++ {
		pause(n)
	}
}

// help runs block 1 of every pass that run posts, until the nil pass.
func (c *mgCycle) help() {
	for seq := uint32(1); ; seq++ {
		for n := 0; c.posted.Load() != seq; n++ {
			pause(n)
		}
		pass := c.pass
		if pass != nil {
			pass(1)
		}
		c.done.Store(seq)
		if pass == nil {
			return
		}
	}
}

// pause is poll n of a wait for the other half: a bare poll at first, since
// the halves take about equally long, then a yield, so a half that is not
// running gets the processor.
func pause(n int) {
	if n >= spinPolls {
		runtime.Gosched()
	}
}

// newCycle allocates one V-cycle's scratch for mg's hierarchy.
func (mg *Multigrid) newCycle() *mgCycle {
	n := len(mg.s.levels)
	c := &mgCycle{r: make([][]float64, n), z: make([][]float64, n), t: make([][]float64, n)}
	for h := range c.line {
		c.line[h] = make([]float64, mg.s.geo.Layers)
	}
	for l, lev := range mg.s.levels {
		c.r[l], c.z[l] = make([]float64, lev.n), make([]float64, lev.n)
		if l < n-1 {
			c.t[l] = make([]float64, lev.n)
		}
	}
	return c
}

// vcycle recurses one level, from c.r[l] into c.z[l]: forward line-GS
// pre-smooth from a zero guess, restricted-defect coarse correction, backward
// line-GS post-smooth. The backward sweep is the A-adjoint of the forward one
// and R = Pᵀ, so the cycle is a symmetric positive-definite operator, which
// is what lets it sit inside PCG. Every pass runs per block (c.run); the
// coarsest solve runs on the caller between passes.
//
// In a split hierarchy each block sweeps its own columns and lags its
// couplings to the other block: the pre-smooth reads them at the zero
// guess, and the post-smooth at their values before it starts, which
// lagCross folds into r, so the sweeps are two-block (hybrid) Gauss-Seidel
// and each other's A-adjoints. The transfers read across the cut, so every
// pass waits for the previous one on both blocks.
func (mg *Multigrid) vcycle(c *mgCycle, l int) {
	z, r := c.z[l], c.r[l]
	if l == len(mg.lv)-1 {
		envSolve(mg.chol, mg.s.levels[l], z, r)
		return
	}
	lev, coarse, t := mg.s.levels[l], mg.s.levels[l+1], c.t[l]
	c.run(func(h int) { mg.forwardSweep(l, h, z, r) })
	c.run(func(h int) { mg.sweepDefect(l, h, t, z) })
	c.run(func(h int) {
		lo, hi := coarse.cols(h)
		mg.restrict(l+1, lo, hi, c.r[l+1], t, c.line[h])
	})
	mg.vcycle(c, l+1)
	c.run(func(h int) {
		lo, hi := lev.cols(h)
		mg.prolongAdd(l+1, lo, hi, z, c.z[l+1], c.line[h])
	})
	c.run(func(h int) { mg.lagCross(l, h, r, z) })
	c.run(func(h int) { mg.backwardSweep(l, h, z, r, c.line[h]) })
}

// restrict computes coarse columns [lo, hi) of level l's defect rc = Pᵀ·tf
// from the line-major level l-1 defect tf, one coarse column at a time: each
// of the column's layers sums its children in list order, in acc (Layers
// long).
func (mg *Multigrid) restrict(l, lo, hi int, rc, tf, acc []float64) {
	lev := mg.s.levels[l]
	cs, ps := lev.row(0, 1), lev.row(1, 0)
	for C := lo; C < hi; C++ {
		clear(acc)
		for q := lev.ptPtr[C]; q < lev.ptPtr[C+1]; q++ {
			w := lev.ptW[q]
			src := tf[int(lev.ptCol[q])*lev.layers:][:len(acc)]
			for p, v := range src {
				acc[p] += w * v
			}
		}
		for p, v := range acc {
			rc[C*cs+p*ps] = v
		}
	}
}

// prolongAdd adds the prolonged level-l correction P·zc to fine columns
// [lo, hi) of the line-major level l-1 vector zf, one fine column at a time,
// accumulating in acc.
func (mg *Multigrid) prolongAdd(l, lo, hi int, zf, zc, acc []float64) {
	lev := mg.s.levels[l]
	cs, ps := lev.row(0, 1), lev.row(1, 0)
	for f := lo; f < hi; f++ {
		clear(acc)
		for q := lev.pPtr[f]; q < lev.pPtr[f+1]; q++ {
			w, base := lev.pW[q], int(lev.pCol[q])*cs
			for p := range acc {
				acc[p] += w * zc[base+p*ps]
			}
		}
		dst := zf[f*lev.layers:][:len(acc)]
		for p, v := range acc {
			dst[p] += v
		}
	}
}

// forwardSweep is the pre-smooth of block h: one vertical-line block
// Gauss-Seidel sweep over the block's columns of the line-major level l from
// a zero guess, in in-plane column order, solving each column's tridiagonal
// block (LDLᵀ factors from Refresh) straight into z. Under a zero guess
// later columns, the column itself and the other block contribute nothing,
// so a right-hand side reads only the couplings to earlier columns of the
// same block and z needs no clearing.
func (mg *Multigrid) forwardSweep(l, h int, z, r []float64) {
	lev, d := mg.s.levels[l], &mg.lv[l]
	a := d.a
	lo, hi := lev.rows(h)
	for base := lo; base < hi; base += lev.layers {
		t := z[base:][:lev.layers]
		for p := range t {
			i := base + p
			s := &lev.split[i]
			t[p] = subDot(r[i], a, s.lStart, s.lEnd, z)
		}
		d.solveLine(base, t)
	}
}

// sweepDefect computes block h's rows of the defect t = r − A·z left by
// forwardSweep. Each column's block has been solved exactly against its
// couplings to earlier columns of its own block, so t = −U·z over the
// later-column couplings U, less the skip entries' terms and the couplings
// to earlier columns of the other block.
func (mg *Multigrid) sweepDefect(l, h int, t, z []float64) {
	lev, a := mg.s.levels[l], mg.lv[l].a
	lo, hi := lev.rows(h)
	for i := lo; i < hi; i++ {
		s := &lev.split[i]
		acc := subDot(lev.subSkip(0, a, i, z), a, s.uStart, a.RowPtr[i+1], z)
		if s.lStart > a.RowPtr[i] {
			acc = subDot(acc, a, a.RowPtr[i], s.lStart, z)
		}
		t[i] = acc
	}
}

// lagCross subtracts block h's couplings across the cut from r, at z's
// values after the prolongation: the post-smooth lags them, and folding
// them into r before either block sweeps keeps the other block's updates
// out of them. r is the post-smooth's own right-hand side, which nothing
// reads after it.
func (mg *Multigrid) lagCross(l, h int, r, z []float64) {
	lev, a := mg.s.levels[l], mg.lv[l].a
	lo, hi := lev.rows(h)
	for i := max(lo, lev.xLo); i < min(hi, lev.xHi); i++ {
		s := &lev.split[i]
		r[i] = subDot(subDot(r[i], a, a.RowPtr[i], s.lStart, z), a, s.uEnd, a.RowPtr[i+1], z)
	}
}

// backwardSweep is the post-smooth of block h: the same sweep in exactly the
// reverse column order, which makes it forwardSweep's A-adjoint, with
// right-hand sides that read every coupling within the block outside the
// line at its latest value (lagCross has taken the couplings across the
// cut). t is one column's scratch.
func (mg *Multigrid) backwardSweep(l, h int, z, r, t []float64) {
	lev, d := mg.s.levels[l], &mg.lv[l]
	a := d.a
	lo, hi := lev.rows(h)
	for base := hi - lev.layers; base >= lo; base -= lev.layers {
		for p := range t {
			i := base + p
			s := &lev.split[i]
			acc := lev.subSkip(subDot(r[i], a, s.lStart, s.lEnd, z), a, i, z)
			t[p] = subDot(acc, a, s.uStart, s.uEnd, z)
		}
		d.solveLine(base, t)
		for p, v := range t {
			z[base+p] = v
		}
	}
}

// subDot returns acc − Σ a_k·x[col_k] over value slots [lo, hi) of a.
func subDot(acc float64, a *CSR, lo, hi int32, x []float64) float64 {
	cols := a.Col[lo:hi]
	vals := a.Val[lo:hi]
	vals = vals[:len(cols)]
	for k, j := range cols {
		acc -= vals[k] * x[j]
	}
	return acc
}

// subSkip returns acc minus row i's own-column couplings beyond the adjacent
// layers (skip entries), at x's current values.
func (lev *mgLevel) subSkip(acc float64, a *CSR, i int, x []float64) float64 {
	if !lev.skip {
		return acc
	}
	for k := lev.split[i].lEnd; k < lev.split[i].uStart; k++ {
		if k != lev.diagSlot[i] && k != lev.upSlot[i] && k != lev.dnSlot[i] {
			acc -= a.Val[k] * x[a.Col[k]]
		}
	}
	return acc
}

// solveLine overwrites t with the solution of the tridiagonal block of the
// column whose rows start at base.
func (d *mgLevelData) solveLine(base int, t []float64) {
	lfac := d.lfac[base:][:len(t)]
	dinv := d.dinv[base:][:len(t)]
	y := 0.0 // forward elimination, unscaled; lfac of a column's first row is 0
	for p := range t {
		y = t[p] - lfac[p]*y
		t[p] = y * dinv[p]
	}
	for p := len(t) - 2; p >= 0; p-- {
		t[p] -= lfac[p+1] * t[p+1]
	}
}

// envCholesky factors the coarsest operator a into L with A = L·Lᵀ, row by
// row within lev's envelope, into L (envPtr[n] long). Every entry is the
// same fixed-order sum a dense factorization forms; the terms it leaves out
// multiply an entry left of a row's envelope, which is exactly zero, so the
// factor is bit for bit the dense one's lower triangle.
func envCholesky(a *CSR, lev *mgLevel, L []float64) error {
	first, ptr := lev.envFirst, lev.envPtr
	clear(L)
	for i := range a.N {
		fi := first[i]
		row := L[ptr[i]:ptr[i+1]] // columns fi … i
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.Col[k]; j <= int32(i) {
				row[j-fi] = a.Val[k]
			}
		}
		for j := fi; j < int32(i); j++ {
			fj := first[j]
			rj := L[ptr[j]:ptr[j+1]] // columns fj … j
			s := row[j-fi]
			for k := max(fi, fj); k < j; k++ {
				s -= row[k-fi] * rj[k-fj]
			}
			row[j-fi] = s / rj[j-fj]
		}
		d := row[len(row)-1]
		for _, v := range row[:len(row)-1] {
			d -= v * v
		}
		if d <= 0 {
			return fmt.Errorf("sparse: Cholesky pivot %g <= 0 at row %d; matrix not SPD", d, i)
		}
		row[len(row)-1] = math.Sqrt(d)
	}
	return nil
}

// envSolve solves L·Lᵀ·z = r by forward and backward substitution with the
// envelope factor from envCholesky, summing the terms in a dense solve's
// order.
func envSolve(L []float64, lev *mgLevel, z, r []float64) {
	first, ptr := lev.envFirst, lev.envPtr
	for i := range z {
		row := L[ptr[i]:ptr[i+1]]
		s, zs := r[i], z[first[i]:i]
		for k, v := range row[:len(zs)] {
			s -= v * zs[k]
		}
		z[i] = s / row[len(zs)]
	}
	for i := len(z) - 1; i >= 0; i-- {
		s := z[i]
		for k := int32(i) + 1; k <= lev.envLast[i]; k++ {
			if fk := first[k]; fk <= int32(i) {
				s -= L[ptr[k]+int32(i)-fk] * z[k]
			}
		}
		z[i] = s / L[ptr[i+1]-1]
	}
}
