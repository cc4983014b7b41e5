package sparse

import (
	"fmt"
	"math"
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
//     heterogeneous conductance is inherited rather than re-modeled;
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
//   - a dense Cholesky solve at the coarsest level, falling back to a fixed
//     number of symmetric Gauss-Seidel sweeps when coarsening stalls early
//     (odd dimensions) and the coarsest system is too large to factor.
//
// Storage order: every smoothed level is numbered line-major, row c·layers+p
// for layer p of in-plane column c, so a line solve reads one contiguous run
// of rows, CSR entries, factors and vector entries rather than `layers` rows
// nx·ny apart. Apply permutes r in from, and z out to, the bound matrix's
// layer-major numbering once per cycle. The coarsest level keeps the
// layer-major numbering its dense factorization or GS fallback runs in.
// Each row's entries are in ascending column order, so a smoothed-level row
// reads [earlier columns | own column | later columns] and each pass of the
// cycle reads only the part it needs (forwardSweep, sweepDefect,
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

// coarsestMaxDense is the largest coarsest-level size that is factored
// densely; larger coarsest systems — which only arise when odd grid
// dimensions stop the coarsening early — are solved approximately by
// coarsestGSSweeps symmetric Gauss-Seidel sweeps instead. A fixed sweep count
// from a zero guess is a fixed symmetric linear operator, so the fallback
// preserves the SPD property PCG needs.
const (
	coarsestMaxDense = 1024
	coarsestGSSweeps = 4
)

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
	// absent), the line smoother's tridiagonal blocks. On line-major levels a
	// row's own-column entries are slots [lEnd, uStart); skip reports one
	// that skips a layer, which the line solve leaves on the right-hand side.
	rowPtr, col, src         []int32
	diagSlot, upSlot, dnSlot []int32
	lEnd, uStart             []int32
	skip                     bool

	// Prolongation P from this (coarse) level to the next finer level, per
	// in-plane column: fine column f's ≤4 coarse parent columns and bilinear
	// weights are pCol/pW[pPtr[f]:pPtr[f+1]], and the same list serves every
	// layer. pt* is the transpose (restriction), indexed by coarse column,
	// children in ascending order.
	pPtr, pCol   []int32
	pW           []float64
	ptPtr, ptCol []int32
	ptW          []float64
}

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

// mgStructure is the full symbolic hierarchy for one (geometry, pattern)
// pair. It is immutable after construction and shared across Multigrid
// instances via mgStructCache.
type mgStructure struct {
	geo        GridGeometry
	levels     []*mgLevel
	maxCoarseN int // largest level-≥1 size, for the Galerkin scatter scratch
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

// canCoarsen reports whether an nx×ny plane supports another 2× coarsening:
// both dimensions even, and large enough that a coarser level still has
// meaningful in-plane structure.
func canCoarsen(nx, ny int) bool {
	return nx >= 8 && ny >= 8 && nx%2 == 0 && ny%2 == 0
}

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
}

// coarsePattern sets lev's Galerkin sparsity pattern, in lev's numbering,
// from the line-major pattern of the next finer level and lev's
// interpolation: row I of A_c couples every coarse pair reachable through
// Pᵀ·A·P, in ascending order. A row's pattern is a set that reads only the
// finer level, so contiguous runs of rows go to min(GOMAXPROCS,
// n/galerkinGrainRows) workers, each with its own marker and column buffer,
// and the runs are joined in row order: the pattern does not depend on the
// split.
func (lev *mgLevel) coarsePattern(fine *mgLevel) {
	lev.rowPtr = make([]int32, lev.n+1)
	w := max(1, min(runtime.GOMAXPROCS(0), lev.n/galerkinGrainRows))
	parts := make([][]int32, w)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[k] = lev.coarseRows(fine, k*lev.n/w, (k+1)*lev.n/w)
		}()
	}
	wg.Wait()
	for I := 0; I < lev.n; I++ {
		lev.rowPtr[I+1] += lev.rowPtr[I]
	}
	lev.col = slices.Concat(parts...)
}

// coarseRows returns the concatenated patterns of rows [lo, hi) and stores
// each row's length in lev.rowPtr[I+1].
func (lev *mgLevel) coarseRows(fine *mgLevel, lo, hi int) []int32 {
	cs, ps := int32(lev.row(0, 1)), int32(lev.row(1, 0))
	layers := uint32(fine.layers)
	marker := make([]int32, lev.n)
	for i := range marker {
		marker[i] = -1
	}
	cols := make([]int32, 0, 27*(hi-lo))
	for I := lo; I < hi; I++ {
		P, C := lev.pos(I)
		start := len(cols)
		for q := lev.ptPtr[C]; q < lev.ptPtr[C+1]; q++ {
			fi := fine.row(P, int(lev.ptCol[q]))
			for _, fj := range fine.col[fine.rowPtr[fi]:fine.rowPtr[fi+1]] {
				pj, cj := uint32(fj)%layers, uint32(fj)/layers
				base := int32(pj) * ps
				for _, Cq := range lev.pCol[lev.pPtr[cj]:lev.pPtr[cj+1]] {
					if J := base + Cq*cs; marker[J] != int32(I) {
						marker[J] = int32(I)
						cols = append(cols, J)
					}
				}
			}
		}
		slices.Sort(cols[start:])
		lev.rowPtr[I+1] = int32(len(cols) - start)
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
		lev.lEnd, lev.uStart = make([]int32, lev.n), make([]int32, lev.n)
	}
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
			lev.lEnd[i], lev.uStart[i] = lo+int32(e), lo+int32(u)
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
	var fine *mgLevel
	for {
		lev := &mgLevel{nx: nx, ny: ny, n: geo.Layers * nx * ny, layers: geo.Layers, line: canCoarsen(nx, ny)}
		if fine == nil {
			lev.finePattern(a)
		} else {
			buildProlongation(lev, fine.nx, fine.ny)
			lev.coarsePattern(fine)
			s.maxCoarseN = max(s.maxCoarseN, lev.n)
		}
		lev.findSlots()
		s.levels = append(s.levels, lev)
		if !lev.line {
			return s
		}
		fine = lev
		nx, ny = nx/2, ny/2
	}
}

// mgLevelData is the per-instance numeric state of one level, in the level's
// numbering: the operator (level 0 snapshots the bound fine matrix's values
// at Refresh; coarser levels own Galerkin values), the line smoother's
// per-column tridiagonal LDLᵀ factors (lfac holds the unit-lower multiplier
// of each row toward the layer below, dinv the inverse pivots), the inverse
// point diagonal for the coarsest-level GS fallback (coarsest level only),
// and the rows the current Refresh recomputes.
type mgLevelData struct {
	a          *CSR
	invD       []float64
	lfac, dinv []float64
	dirty      []bool
}

// mgCycle is the scratch one V-cycle writes: per level, r and z for the
// level's defect and correction (level 0 holds the permuted r and z of
// Apply) and t for the residual (every level but the coarsest), plus line,
// one column's values (Layers long) for line solves and transfers.
type mgCycle struct {
	r, z, t [][]float64
	line    []float64
}

// galerkinGrainRows is the fewest marked rows of one level that Refresh
// hands a worker of its own. An SA move marks a few hundred rows per level
// at grid 64, which stay serial; a full refresh marks every row and runs on
// every core.
const galerkinGrainRows = 256

// Multigrid is a geometric multigrid V-cycle over a bound matrix,
// implementing Preconditioner. The bound matrix's values may change freely
// between solves (the thermal delta-assembly path rewrites them in place);
// call Refresh to fold the current values into the coarse operators — until
// then the cycle preconditions with the values of the previous Refresh,
// which affects CG's iteration count but never its answer.
//
// Apply is safe for concurrent use: a V-cycle only reads the numeric
// hierarchy and writes scratch it takes from a per-instance free list, so
// SolveCGBatch runs its columns' cycles on parallel workers. Refresh must not
// run concurrently with Apply or with itself. The symbolic skeleton is
// shared process-wide across instances with the same geometry and sparsity
// pattern.
type Multigrid struct {
	s *mgStructure
	a *CSR

	lv   []mgLevelData
	chol []float64   // dense Cholesky factor of the coarsest level, nil → GS fallback
	ws   [][]float64 // Galerkin scatter workspaces, maxCoarseN long, one per Refresh worker
	rows []int32     // one level's marked rows, Refresh scratch

	mu   sync.Mutex
	free []*mgCycle // idle V-cycle scratch

	// needFull makes the next Refresh recompute every row: set for a fresh
	// instance and by a failed Refresh, whose partial updates the row marks
	// no longer describe.
	needFull bool

	cycles atomic.Int64
	setups int64
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
		ws:       [][]float64{make([]float64, s.maxCoarseN)},
		needFull: true,
	}
	last := len(s.levels) - 1
	for l, lev := range s.levels {
		// Level 0 snapshots the bound matrix's values rather than aliasing
		// them: Refresh copies them in, so in-place updates to the bound
		// matrix between refreshes leave the whole hierarchy consistently
		// stale. Mixing live level-0 values with stale coarse operators and
		// smoother factors can lose positive definiteness. The snapshot is
		// also what Refresh diffs against to find the rows that changed.
		d := &mg.lv[l]
		d.a = &CSR{N: lev.n, RowPtr: lev.rowPtr, Col: lev.col, Val: make([]float64, len(lev.col))}
		if l == last {
			d.invD = make([]float64, lev.n)
		}
		d.lfac = make([]float64, lev.n)
		d.dinv = make([]float64, lev.n)
		d.dirty = make([]bool, lev.n)
	}
	if err := mg.Refresh(); err != nil {
		return nil, err
	}
	return mg, nil
}

// Levels returns the hierarchy depth (1 means no coarsening was possible and
// the "cycle" is just the coarsest-level solve).
func (mg *Multigrid) Levels() int { return len(mg.lv) }

// Cycles returns the number of V-cycles applied since construction.
func (mg *Multigrid) Cycles() int64 { return mg.cycles.Load() }

// Setups returns the number of successful Refresh passes (including the
// constructor's).
func (mg *Multigrid) Setups() int64 { return mg.setups }

// Operator returns level l's operator, on an (Nx>>l)×(Ny>>l) plane, as of
// the last Refresh. Its rows are line-major (row c·Layers + p for layer p of
// in-plane column c) on every level but the coarsest, which is layer-major.
// The matrix is the hierarchy's own and must not be modified.
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
	last := &mg.lv[len(mg.lv)-1]
	if last.a.N <= coarsestMaxDense && slices.Contains(last.dirty, true) {
		chol, err := denseCholesky(last.a, mg.chol)
		if err != nil {
			return fmt.Errorf("sparse: multigrid coarsest level: %w", err)
		}
		mg.chol = chol
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
	for i := range dirty {
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
}

// markParents marks the rows of level l that have a marked child on level
// l-1: exactly the Galerkin rows whose inputs changed.
func (mg *Multigrid) markParents(l int) {
	lev, fine, dirty := mg.s.levels[l], mg.s.levels[l-1], mg.lv[l].dirty
	clear(dirty)
	for f, changed := range mg.lv[l-1].dirty {
		if changed {
			p, c := fine.pos(f)
			for q := lev.pPtr[c]; q < lev.pPtr[c+1]; q++ {
				dirty[lev.row(p, int(lev.pCol[q]))] = true
			}
		}
	}
}

// refreshSmoother checks the diagonals of level l's marked rows, updates
// their inverses (coarsest level only), and refactors the line-smoother
// blocks of every column holding a marked row.
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
		if d.invD != nil {
			d.invD[i] = 1 / v
		}
	}
	// Factor each vertical column's tridiagonal block (diagonal plus the
	// up/down couplings) as LDLᵀ for the line smoother. The blocks are
	// principal submatrices of an SPD operator, so positive pivots are
	// guaranteed in exact arithmetic; a non-positive one means the operator
	// itself lost definiteness. A block reads only its own column's rows.
	for c := 0; c < lev.nx*lev.ny; c++ {
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
// scatter workspace, and the values do not depend on the split.
func (mg *Multigrid) galerkinLevel(l int) {
	rows := mg.rows[:0]
	for I, dirty := range mg.lv[l].dirty {
		if dirty {
			rows = append(rows, int32(I))
		}
	}
	mg.rows = rows
	w := min(runtime.GOMAXPROCS(0), len(rows)/galerkinGrainRows)
	if w < 2 {
		for _, I := range rows {
			mg.galerkinRow(l, int(I), mg.ws[0])
		}
		return
	}
	for len(mg.ws) < w {
		mg.ws = append(mg.ws, make([]float64, mg.s.maxCoarseN))
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(part []int32, ws []float64) {
			defer wg.Done()
			for _, I := range part {
				mg.galerkinRow(l, int(I), ws)
			}
		}(rows[k*len(rows)/w:(k+1)*len(rows)/w], mg.ws[k])
	}
	wg.Wait()
}

// galerkinRow recomputes row I of level l's operator as (Pᵀ·A·P)[I,:] from
// level l-1's operator and level l's interpolation: contributions are
// scattered into the dense workspace ws through the fixed interpolation
// lists and gathered back into the (superset-by-construction) pattern slots,
// which also re-zeroes ws. Serial and in fixed order, hence deterministic,
// and independent of every other row.
func (mg *Multigrid) galerkinRow(l, I int, ws []float64) {
	lev, fineLev := mg.s.levels[l], mg.s.levels[l-1]
	fine, coarse := mg.lv[l-1].a, mg.lv[l].a
	pPtr, pCol, pW := lev.pPtr, lev.pCol, lev.pW
	cs, ps := lev.row(0, 1), lev.row(1, 0)
	layers := uint32(fineLev.layers) // the finer level is line-major
	P, C := lev.pos(I)
	for q := lev.ptPtr[C]; q < lev.ptPtr[C+1]; q++ {
		fi := fineLev.row(P, int(lev.ptCol[q]))
		wI := lev.ptW[q]
		lo, hi := fine.RowPtr[fi], fine.RowPtr[fi+1]
		fcols, fvals := fine.Col[lo:hi], fine.Val[lo:hi]
		fvals = fvals[:len(fcols)]
		for k, fj := range fcols {
			v := wI * fvals[k]
			pj, cj := uint32(fj)%layers, uint32(fj)/layers
			parents, w := pCol[pPtr[cj]:pPtr[cj+1]], pW[pPtr[cj]:]
			w = w[:len(parents)]
			base := int(pj) * ps
			for m, Cq := range parents {
				ws[base+int(Cq)*cs] += v * w[m]
			}
		}
	}
	for k := coarse.RowPtr[I]; k < coarse.RowPtr[I+1]; k++ {
		J := coarse.Col[k]
		coarse.Val[k] = ws[J]
		ws[J] = 0
	}
}

// Apply runs one V-cycle: z ≈ A⁻¹·r. It implements Preconditioner and is
// safe for concurrent use. r and z are in the bound matrix's layer-major
// numbering and are permuted into and out of level 0's.
func (mg *Multigrid) Apply(z, r []float64) {
	mg.cycles.Add(1)
	c := mg.takeCycle()
	defer mg.putCycle(c)
	lev, r0, z0 := mg.s.levels[0], c.r[0], c.z[0]
	nxy := lev.nx * lev.ny
	cs, ps := lev.row(0, 1), lev.row(1, 0)
	for p := 0; p < lev.layers; p++ {
		for i := 0; i < nxy; i++ {
			r0[i*cs+p*ps] = r[p*nxy+i]
		}
	}
	mg.vcycle(c, 0)
	for p := 0; p < lev.layers; p++ {
		for i := 0; i < nxy; i++ {
			z[p*nxy+i] = z0[i*cs+p*ps]
		}
	}
}

// newCycle allocates one V-cycle's scratch for mg's hierarchy.
func (mg *Multigrid) newCycle() *mgCycle {
	n := len(mg.s.levels)
	c := &mgCycle{r: make([][]float64, n), z: make([][]float64, n), t: make([][]float64, n),
		line: make([]float64, mg.s.geo.Layers)}
	for l, lev := range mg.s.levels {
		c.r[l], c.z[l] = make([]float64, lev.n), make([]float64, lev.n)
		if l < n-1 {
			c.t[l] = make([]float64, lev.n)
		}
	}
	return c
}

// takeCycle pops idle V-cycle scratch off the free list, allocating a set
// when every one is in use (or on the first Apply).
func (mg *Multigrid) takeCycle() *mgCycle {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if k := len(mg.free) - 1; k >= 0 {
		c := mg.free[k]
		mg.free = mg.free[:k]
		return c
	}
	return mg.newCycle()
}

// putCycle returns V-cycle scratch to the free list.
func (mg *Multigrid) putCycle(c *mgCycle) {
	mg.mu.Lock()
	mg.free = append(mg.free, c)
	mg.mu.Unlock()
}

// vcycle recurses one level, from c.r[l] into c.z[l]: forward line-GS
// pre-smooth from a zero guess, restricted-defect coarse correction, backward
// line-GS post-smooth. The backward sweep is the A-adjoint of the forward one
// and R = Pᵀ, so the cycle is a symmetric positive-definite operator, which
// is what lets it sit inside PCG.
func (mg *Multigrid) vcycle(c *mgCycle, l int) {
	d, z, r := &mg.lv[l], c.z[l], c.r[l]
	if l == len(mg.lv)-1 {
		if mg.chol != nil {
			cholSolve(mg.chol, d.a.N, z, r)
		} else {
			mg.coarseGS(d, z, r)
		}
		return
	}
	t := c.t[l]
	mg.forwardSweep(l, z, r)
	mg.sweepDefect(l, t, z)
	mg.restrict(l+1, c.r[l+1], t, c.line)
	mg.vcycle(c, l+1)
	mg.prolongAdd(l+1, z, c.z[l+1], c.line)
	mg.backwardSweep(l, z, r, c.line)
}

// restrict computes level l's defect rc = Pᵀ·tf from the line-major level
// l-1 defect tf, one coarse column at a time: each of the column's layers
// sums its children in list order, in acc (Layers long).
func (mg *Multigrid) restrict(l int, rc, tf, acc []float64) {
	lev := mg.s.levels[l]
	cs, ps := lev.row(0, 1), lev.row(1, 0)
	for C := 0; C < lev.nx*lev.ny; C++ {
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

// prolongAdd adds the prolonged level-l correction P·zc to the line-major
// level l-1 vector zf, one fine column at a time, accumulating in acc.
func (mg *Multigrid) prolongAdd(l int, zf, zc, acc []float64) {
	lev := mg.s.levels[l]
	cs, ps := lev.row(0, 1), lev.row(1, 0)
	for f := 0; f < len(lev.pPtr)-1; f++ {
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

// forwardSweep is the pre-smooth: one vertical-line block Gauss-Seidel sweep
// over the line-major level l from a zero guess, in in-plane column order,
// solving each column's tridiagonal block (LDLᵀ factors from Refresh)
// straight into z. Under a zero guess later columns and the column itself
// contribute nothing, so a right-hand side reads only the couplings to
// earlier columns and z needs no clearing.
func (mg *Multigrid) forwardSweep(l int, z, r []float64) {
	lev, d := mg.s.levels[l], &mg.lv[l]
	a := d.a
	for base := 0; base < len(z); base += lev.layers {
		t := z[base:][:lev.layers]
		for p := range t {
			i := base + p
			t[p] = subDot(r[i], a, a.RowPtr[i], lev.lEnd[i], z)
		}
		d.solveLine(base, t)
	}
}

// sweepDefect computes the defect t = r − A·z left by forwardSweep. Each
// column's block has been solved exactly against its couplings to earlier
// columns, so t = −U·z over the later-column couplings U, less the skip
// entries' terms.
func (mg *Multigrid) sweepDefect(l int, t, z []float64) {
	lev, a := mg.s.levels[l], mg.lv[l].a
	for i := range t {
		t[i] = subDot(lev.subSkip(0, a, i, z), a, lev.uStart[i], a.RowPtr[i+1], z)
	}
}

// backwardSweep is the post-smooth: the same sweep in exactly the reverse
// column order, which makes it forwardSweep's A-adjoint, with right-hand
// sides that read every coupling outside the block at its latest value. t is
// one column's scratch.
func (mg *Multigrid) backwardSweep(l int, z, r, t []float64) {
	lev, d := mg.s.levels[l], &mg.lv[l]
	a := d.a
	for base := len(z) - lev.layers; base >= 0; base -= lev.layers {
		for p := range t {
			i := base + p
			acc := lev.subSkip(subDot(r[i], a, a.RowPtr[i], lev.lEnd[i], z), a, i, z)
			t[p] = subDot(acc, a, lev.uStart[i], a.RowPtr[i+1], z)
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
	for k := lev.lEnd[i]; k < lev.uStart[i]; k++ {
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

// coarseGS approximates the coarsest solve with a fixed number of symmetric
// Gauss-Seidel sweeps from a zero guess — a fixed symmetric linear operator,
// so the overall cycle stays a valid SPD preconditioner even when the
// coarsest system was too large to factor densely.
func (mg *Multigrid) coarseGS(d *mgLevelData, z, r []float64) {
	a, invD := d.a, d.invD
	n := a.N
	for i := range z {
		z[i] = 0
	}
	for s := 0; s < coarsestGSSweeps; s++ {
		for i := 0; i < n; i++ {
			acc := r[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if j := int(a.Col[k]); j != i {
					acc -= a.Val[k] * z[j]
				}
			}
			z[i] = acc * invD[i]
		}
		for i := n - 1; i >= 0; i-- {
			acc := r[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if j := int(a.Col[k]); j != i {
					acc -= a.Val[k] * z[j]
				}
			}
			z[i] = acc * invD[i]
		}
	}
}

// denseCholesky factors the (small) coarsest operator into a dense lower
// triangle L with A = L·Lᵀ, reusing buf's storage when it is large enough.
func denseCholesky(a *CSR, buf []float64) ([]float64, error) {
	n := a.N
	L := buf
	if cap(L) < n*n {
		L = make([]float64, n*n)
	} else {
		L = L[:n*n]
		clear(L)
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			L[i*n+int(a.Col[k])] = a.Val[k]
		}
	}
	for j := 0; j < n; j++ {
		d := L[j*n+j]
		for k := 0; k < j; k++ {
			d -= L[j*n+k] * L[j*n+k]
		}
		if d <= 0 {
			return nil, fmt.Errorf("sparse: Cholesky pivot %g <= 0 at row %d; matrix not SPD", d, j)
		}
		dj := math.Sqrt(d)
		L[j*n+j] = dj
		for i := j + 1; i < n; i++ {
			s := L[i*n+j]
			for k := 0; k < j; k++ {
				s -= L[i*n+k] * L[j*n+k]
			}
			L[i*n+j] = s / dj
		}
	}
	return L, nil
}

// cholSolve solves L·Lᵀ·z = r by forward and backward substitution.
func cholSolve(L []float64, n int, z, r []float64) {
	for i := 0; i < n; i++ {
		s := r[i]
		for k := 0; k < i; k++ {
			s -= L[i*n+k] * z[k]
		}
		z[i] = s / L[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= L[k*n+i] * z[k]
		}
		z[i] = s / L[i*n+i]
	}
}
