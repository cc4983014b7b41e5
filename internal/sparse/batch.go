package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"tap25d/internal/faultinject"
)

// SolveCGBatch solves A·x_c = b_c for B right-hand sides against one shared
// matrix in a blocked sweep. The motivation is memory traffic: a CG
// iteration is dominated by streaming the matrix once per mat-vec, so B
// independent solves stream it B times per iteration while the blocked sweep
// streams it once and applies every stored entry to all B iterates.
// Best-of-N placement replicas and service workers evaluating the same model
// share assembly and one preconditioner (opt.Precond, or the Jacobi
// diagonal when that is nil) across the batch.
//
// Per column, the arithmetic reproduces CGSolver.SolveContext exactly: every
// accumulator (row sums, dot products, the x/r update pass) sums in the same
// order as the serial loops, so each batch solution and iteration count is
// bit-identical to solving that column alone. Columns that converge
// drop out of the sweep at exactly the serial iteration.
//
// xs[c] is the warm-start guess for column c and is overwritten in place
// with the solution (or the current iterate on cancellation/budget
// exhaustion). The returned slice holds per-column iteration counts. Columns
// that exhaust opt.MaxIter are aggregated into one error matching
// ErrNoConvergence; structural failures (dimension mismatch, non-SPD matrix
// or preconditioner, cancellation) abort the whole batch, since every column
// shares the operator. opt.OnIteration is ignored — a per-column residual
// trace only makes sense for single solves.
func SolveCGBatch(ctx context.Context, a *CSR, xs, bs [][]float64, opt CGOptions) ([]int, error) {
	n := a.N
	if len(xs) != len(bs) {
		return nil, fmt.Errorf("sparse: SolveCGBatch has %d guesses for %d right-hand sides", len(xs), len(bs))
	}
	nrhs := len(bs)
	if nrhs == 0 {
		return nil, nil
	}
	for c := range bs {
		if len(xs[c]) != n || len(bs[c]) != n {
			return nil, fmt.Errorf("sparse: SolveCGBatch column %d dimension mismatch: n=%d len(x)=%d len(b)=%d", c, n, len(xs[c]), len(bs[c]))
		}
	}
	if err := opt.Inject.Hit(faultinject.PointCGSolve); err != nil {
		return nil, fmt.Errorf("sparse: %w: %w", ErrNoConvergence, err)
	}
	if nrhs == 1 || parallelWorkers(n) < 2 {
		// One column gains nothing from blocking, and on a single-core (or
		// sub-threshold) system the blocked sweep is a net loss: B column
		// blocks of vectors evict each other from cache, while sequential
		// solves keep one column's working set hot and use the faster fused
		// serial kernel. Per column the arithmetic is identical either way,
		// so this engine choice never changes a result — only its speed. One
		// solver is reused across columns to amortize scratch and diagonal
		// setup; on error or cancellation, remaining columns keep their
		// warm-start contents.
		iters := make([]int, nrhs)
		cg := NewCGSolver(a)
		failed := 0
		for c := range bs {
			it, err := cg.SolveContext(ctx, xs[c], bs[c], opt)
			iters[c] = it
			if err != nil {
				if !errors.Is(err, ErrNoConvergence) {
					return iters, err // structural failure or cancellation
				}
				failed++
			}
		}
		if failed > 0 {
			return iters, fmt.Errorf("sparse: %d of %d batch columns: %w", failed, nrhs, ErrNoConvergence)
		}
		return iters, nil
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}

	pre := opt.Precond
	if pre == nil {
		invD := a.Diag()
		for i, d := range invD {
			if d <= 0 {
				return nil, fmt.Errorf("sparse: non-positive diagonal at row %d (%g); matrix not SPD", i, d)
			}
			invD[i] = 1 / d
		}
		pre = jacobi(invD)
	}

	cols := func() [][]float64 {
		s := make([][]float64, nrhs)
		for c := range s {
			s[c] = make([]float64, n)
		}
		return s
	}
	b := &batchState{
		a:       a,
		n:       n,
		m:       nrhs,
		pre:     pre,
		workers: parallelWorkers(n),
		orig:    make([]int, nrhs),
		x:       append([][]float64(nil), xs...), // headers only; columns update in place
		r:       cols(),
		z:       cols(),
		p:       cols(),
		ap:      cols(),
		bn:      make([]float64, nrhs),
		rz:      make([]float64, nrhs),
		rzNew:   make([]float64, nrhs),
		alpha:   make([]float64, nrhs),
		rnorm:   make([]float64, nrhs),
		iters:   make([]int, nrhs),
	}
	for c := 0; c < nrhs; c++ {
		b.orig[c] = c
	}
	return b.run(ctx, bs, tol, maxIter)
}

// batchState carries the per-column state of one SolveCGBatch call. Columns
// are stored as independent contiguous vectors (x aliases the caller's
// slices), so every vector pass runs the same contiguous loop as the serial
// solver and preconditioners apply with no staging copies; only the blocked
// matrix product touches all columns at once, gathering through the active
// slice headers. Active columns are the first m headers; converged columns
// are swap-removed in O(1) by swapping headers, so the sweeps never branch
// on a per-column done flag.
type batchState struct {
	a       *CSR
	n       int
	m       int // active column count, slots [0, m)
	pre     Preconditioner
	workers int

	orig           []int // slot -> original column index
	x, r, z, p, ap [][]float64
	bn, rz, rzNew  []float64 // per-slot ‖b‖ and r·z
	alpha, rnorm   []float64 // per-slot iteration scalars
	iters          []int     // per original column
}

// mulBlock computes dst[c][rows lo..hi) = A·src[c] for the m active columns
// in one sweep over the stored entries. Each column accumulates its row sum
// in k-ascending order — exactly the serial MulVec order, so every column is
// bit-identical to its own serial product. Width 8 (the common service/
// replica batch) keeps its accumulators and column bases in registers
// through a raw-pointer kernel; see mulVecDot for the safety argument (the
// same CSR invariants apply).
func (b *batchState) mulBlock(dst, src [][]float64, lo, hi int) {
	a, m := b.a, b.m
	if m == 8 {
		mulBlock8(a, dst, src, lo, hi)
		return
	}
	sc := src[:m]
	for i := lo; i < hi; i++ {
		for c, d := range dst[:m] {
			col := sc[c]
			var s float64
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				s += a.Val[k] * col[a.Col[k]]
			}
			d[i] = s
		}
	}
}

// mulBlock8 is the width-8 blocked kernel: one pass over the row's entries
// feeds eight register accumulators.
func mulBlock8(a *CSR, dst, src [][]float64, lo, hi int) {
	rowPtr := a.RowPtr
	colp := unsafe.Pointer(unsafe.SliceData(a.Col))
	valp := unsafe.Pointer(unsafe.SliceData(a.Val))
	x0 := unsafe.Pointer(unsafe.SliceData(src[0]))
	x1 := unsafe.Pointer(unsafe.SliceData(src[1]))
	x2 := unsafe.Pointer(unsafe.SliceData(src[2]))
	x3 := unsafe.Pointer(unsafe.SliceData(src[3]))
	x4 := unsafe.Pointer(unsafe.SliceData(src[4]))
	x5 := unsafe.Pointer(unsafe.SliceData(src[5]))
	x6 := unsafe.Pointer(unsafe.SliceData(src[6]))
	x7 := unsafe.Pointer(unsafe.SliceData(src[7]))
	d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
	d4, d5, d6, d7 := dst[4], dst[5], dst[6], dst[7]
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, end := int(rowPtr[i]), int(rowPtr[i+1]); k < end; k++ {
			v := *(*float64)(unsafe.Add(valp, uintptr(k)*8))
			off := uintptr(*(*int32)(unsafe.Add(colp, uintptr(k)*4))) * 8
			s0 += v * *(*float64)(unsafe.Add(x0, off))
			s1 += v * *(*float64)(unsafe.Add(x1, off))
			s2 += v * *(*float64)(unsafe.Add(x2, off))
			s3 += v * *(*float64)(unsafe.Add(x3, off))
			s4 += v * *(*float64)(unsafe.Add(x4, off))
			s5 += v * *(*float64)(unsafe.Add(x5, off))
			s6 += v * *(*float64)(unsafe.Add(x6, off))
			s7 += v * *(*float64)(unsafe.Add(x7, off))
		}
		d0[i], d1[i], d2[i], d3[i] = s0, s1, s2, s3
		d4[i], d5[i], d6[i], d7[i] = s4, s5, s6, s7
	}
}

// mul runs the blocked product dst = A·src over all rows, partitioned across
// workers for large systems. Rows are independent, so any partition is
// bit-identical to the serial sweep.
func (b *batchState) mul(dst, src [][]float64) {
	if b.workers < 2 {
		b.mulBlock(dst, src, 0, b.n)
		return
	}
	chunk := (b.n + b.workers - 1) / b.workers
	var wg sync.WaitGroup
	for lo := 0; lo < b.n; lo += chunk {
		hi := lo + chunk
		if hi > b.n {
			hi = b.n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			b.mulBlock(dst, src, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// forCols runs fn for every active slot — on min(workers, m) goroutines,
// each striding the slots, when the system is large enough to parallelize
// (columns are fully independent between the blocked products; each
// column's own arithmetic stays serial and ordered, so the results do not
// depend on the schedule).
func (b *batchState) forCols(fn func(c int)) {
	w, m := min(b.workers, b.m), b.m
	if w < 2 {
		for c := 0; c < m; c++ {
			fn(c)
		}
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := g; c < m; c += w {
				fn(c)
			}
		}(g)
	}
	wg.Wait()
}

// remove swap-removes slot c in O(1): the last active slot's headers and
// scalars replace c's. Call in descending slot order when removing several
// at once, so the swapped-in slot is always one already examined this sweep.
func (b *batchState) remove(c int) {
	last := b.m - 1
	if c != last {
		b.x[c], b.x[last] = b.x[last], b.x[c]
		b.r[c], b.r[last] = b.r[last], b.r[c]
		b.z[c], b.z[last] = b.z[last], b.z[c]
		b.p[c], b.p[last] = b.p[last], b.p[c]
		b.ap[c], b.ap[last] = b.ap[last], b.ap[c]
		b.orig[c] = b.orig[last]
		b.bn[c] = b.bn[last]
		b.rz[c] = b.rz[last]
		b.rzNew[c] = b.rzNew[last]
		b.alpha[c] = b.alpha[last]
		b.rnorm[c] = b.rnorm[last]
	}
	b.m = last
}

func (b *batchState) run(ctx context.Context, bs [][]float64, tol float64, maxIter int) ([]int, error) {
	n := b.n
	errs := make([]error, b.m) // per-slot structural failures, scanned ascending

	// Initial residual r = b − A·x per column, with ‖b‖ and ‖r₀‖ accumulated
	// in row-ascending order like the serial solver.
	b.mul(b.ap, b.x)
	b.forCols(func(c int) {
		rc, apc, bc := b.r[c], b.ap[c], bs[b.orig[c]]
		var bnorm, rnorm0 float64
		for i := 0; i < n; i++ {
			ri := bc[i] - apc[i]
			rc[i] = ri
			bnorm += bc[i] * bc[i]
			rnorm0 += ri * ri
		}
		b.bn[c] = math.Sqrt(bnorm)
		b.rnorm[c] = rnorm0
	})
	for c := b.m - 1; c >= 0; c-- {
		if b.bn[c] == 0 {
			xc := b.x[c]
			for i := range xc {
				xc[i] = 0
			}
			b.iters[b.orig[c]] = 0
			b.remove(c)
			continue
		}
		if math.Sqrt(b.rnorm[c]) <= tol*b.bn[c] {
			b.iters[b.orig[c]] = 0 // warm start already converged
			b.remove(c)
		}
	}
	if b.m == 0 {
		return b.iters, nil
	}

	// rz = r·M⁻¹r, p = z.
	if err := b.precondition(0); err != nil {
		return b.iters, err
	}
	for c := 0; c < b.m; c++ {
		b.rz[c] = b.rzNew[c]
		copy(b.p[c], b.z[c])
	}

	for it := 1; it <= maxIter; it++ {
		if it%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				b.abort(it)
				return b.iters, fmt.Errorf("sparse: CG canceled after %d iterations: %w", it-1, err)
			}
		}
		// ap = A·p in one blocked sweep; then, per column: the p·Ap dot in
		// row-ascending order (as in the serial mulVecDot), alpha, and the
		// x/r update pass.
		b.mul(b.ap, b.p)
		b.forCols(func(c int) {
			pc, apc := b.p[c], b.ap[c]
			var pap float64
			for i := 0; i < n; i++ {
				pap += pc[i] * apc[i]
			}
			if pap <= 0 {
				errs[c] = fmt.Errorf("sparse: p'Ap = %g <= 0; matrix not SPD", pap)
				return
			}
			al := b.rz[c] / pap
			xc, rc := b.x[c], b.r[c]
			var rnorm float64
			for i := 0; i < n; i++ {
				xc[i] += al * pc[i]
				ri := rc[i] - al*apc[i]
				rc[i] = ri
				rnorm += ri * ri
			}
			b.rnorm[c] = rnorm
		})
		for c := 0; c < b.m; c++ {
			if errs[c] != nil {
				err := errs[c]
				b.abort(it)
				return b.iters, err
			}
		}
		for c := b.m - 1; c >= 0; c-- {
			if math.Sqrt(b.rnorm[c]) <= tol*b.bn[c] {
				b.iters[b.orig[c]] = it
				b.remove(c)
			}
		}
		if b.m == 0 {
			return b.iters, nil
		}
		if err := b.precondition(it); err != nil {
			return b.iters, err
		}
		b.forCols(func(c int) {
			beta := b.rzNew[c] / b.rz[c]
			b.rz[c] = b.rzNew[c]
			pc, zc := b.p[c], b.z[c]
			for i := 0; i < n; i++ {
				pc[i] = zc[i] + beta*pc[i]
			}
		})
	}
	failed := b.m
	b.abort(maxIter)
	return b.iters, fmt.Errorf("sparse: %d of %d batch columns: %w", failed, len(b.iters), ErrNoConvergence)
}

// precondition sets z = M⁻¹·r and rzNew = r·z for every active column, the
// columns on parallel workers sharing the concurrency-safe preconditioner.
// A non-positive r·z, checked in ascending slot order, aborts the batch at
// iteration it.
func (b *batchState) precondition(it int) error {
	b.forCols(func(c int) {
		rc, zc := b.r[c], b.z[c]
		b.pre.Apply(zc, rc)
		var rz float64
		for i := 0; i < b.n; i++ {
			rz += rc[i] * zc[i]
		}
		b.rzNew[c] = rz
	})
	for c := 0; c < b.m; c++ {
		if rz := b.rzNew[c]; rz <= 0 {
			b.abort(it)
			return fmt.Errorf("sparse: r'M⁻¹r = %g <= 0; preconditioner not positive definite", rz)
		}
	}
	return nil
}

// abort records the iteration count for every still-active slot; the
// caller-visible vectors already hold the current iterates (x is updated in
// place).
func (b *batchState) abort(it int) {
	for c := b.m - 1; c >= 0; c-- {
		b.iters[b.orig[c]] = it
		b.remove(c)
	}
}
