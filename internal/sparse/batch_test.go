package sparse

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// batchProblem builds a thermal-stack-like system with nrhs distinct
// right-hand sides and warm-start guesses.
func batchProblem(g, l, nrhs int, seed int64) (*CSR, [][]float64, [][]float64) {
	a := grid3D(g, l)
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, nrhs)
	bs := make([][]float64, nrhs)
	for c := range bs {
		xs[c] = make([]float64, a.N)
		bs[c] = make([]float64, a.N)
		for i := 0; i < a.N; i++ {
			xs[c][i] = 0.1 * rng.NormFloat64()
			bs[c][i] = rng.Float64()
		}
	}
	return a, xs, bs
}

func cloneCols(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for c := range xs {
		out[c] = append([]float64(nil), xs[c]...)
	}
	return out
}

// forceBlocked makes SolveCGBatch pick its blocked engine even on a
// single-core host: the engine switch tests parallelWorkers, which needs
// GOMAXPROCS ≥ 2 and a system of at least ParallelThresholdRows rows. Tests
// using it must pair it with a system of ≥ 2·parallelGrainRows rows.
func forceBlocked(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestSolveCGBatchBitIdenticalToSerial: the batch contract — every column's
// solution and iteration count must match solving that column alone, bit for
// bit, on both the Jacobi and the multigrid-preconditioned path. The blocked
// engine needs a system above the parallel threshold, so the grid here is
// 32×32×16 (16384 nodes); the sequential engine variant runs small.
func TestSolveCGBatchBitIdenticalToSerial(t *testing.T) {
	for _, tc := range []struct {
		name    string
		blocked bool
		g, l    int
		pre     func(t *testing.T, a *CSR, g, l int) Preconditioner
	}{
		{"sequential-jacobi", false, 16, 3, nil},
		{"sequential-multigrid", false, 16, 3, buildMG},
		{"blocked-jacobi", true, 32, 16, nil},
		{"blocked-multigrid", true, 32, 16, buildMG},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.blocked {
				forceBlocked(t)
			}
			a, xs, bs := batchProblem(tc.g, tc.l, 6, 42)
			opt := CGOptions{Tol: 1e-9}
			if tc.pre != nil {
				opt.Precond = tc.pre(t, a, tc.g, tc.l)
			}

			serialX := cloneCols(xs)
			serialIt := make([]int, len(bs))
			cg := NewCGSolver(a)
			for c := range bs {
				it, err := cg.Solve(serialX[c], bs[c], opt)
				if err != nil {
					t.Fatal(err)
				}
				serialIt[c] = it
			}

			batchX := cloneCols(xs)
			batchIt, err := SolveCGBatch(context.Background(), a, batchX, bs, opt)
			if err != nil {
				t.Fatal(err)
			}
			for c := range bs {
				if batchIt[c] != serialIt[c] {
					t.Fatalf("column %d: batch %d iterations, serial %d", c, batchIt[c], serialIt[c])
				}
				for i := range serialX[c] {
					if batchX[c][i] != serialX[c][i] {
						t.Fatalf("column %d x[%d]: batch %v, serial %v", c, i, batchX[c][i], serialX[c][i])
					}
				}
			}
		})
	}
}

func buildMG(t *testing.T, a *CSR, g, l int) Preconditioner {
	t.Helper()
	mg, err := NewMultigrid(a, GridGeometry{Layers: l, Nx: g, Ny: g})
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

// TestSolveCGBatchMixedConvergence: zero right-hand sides and already-
// converged warm starts drop out at iteration 0 without disturbing the
// columns that still have work to do, in the blocked engine.
func TestSolveCGBatchMixedConvergence(t *testing.T) {
	forceBlocked(t)
	a, xs, bs := batchProblem(32, 16, 4, 7)
	// Column 1: zero RHS. Column 2: warm start at the exact solution.
	for i := range bs[1] {
		bs[1][i] = 0
		xs[1][i] = 0.5
	}
	exact := make([]float64, a.N)
	if _, err := SolveCG(a, exact, bs[2], CGOptions{Tol: 1e-14}); err != nil {
		t.Fatal(err)
	}
	copy(xs[2], exact)

	want := cloneCols(xs)
	cg := NewCGSolver(a)
	for c := range bs {
		if _, err := cg.Solve(want[c], bs[c], CGOptions{Tol: 1e-9}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := SolveCGBatch(context.Background(), a, xs, bs, CGOptions{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if it[1] != 0 {
		t.Fatalf("zero-RHS column took %d iterations, want 0", it[1])
	}
	if it[2] != 0 {
		t.Fatalf("pre-converged column took %d iterations, want 0", it[2])
	}
	for c := range bs {
		for i := range want[c] {
			if xs[c][i] != want[c][i] {
				t.Fatalf("column %d x[%d]: batch %v, serial %v", c, i, xs[c][i], want[c][i])
			}
		}
	}
}

func TestSolveCGBatchSingleColumnDelegates(t *testing.T) {
	a, rhs := chainSystem(128)
	x := make([]float64, a.N)
	want := make([]float64, a.N)
	itW, err := SolveCG(a, want, rhs, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	it, err := SolveCGBatch(context.Background(), a, [][]float64{x}, [][]float64{rhs}, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(it) != 1 || it[0] != itW {
		t.Fatalf("iterations %v, want [%d]", it, itW)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveCGBatchDimensionMismatch(t *testing.T) {
	a, rhs := chainSystem(32)
	if _, err := SolveCGBatch(context.Background(), a, [][]float64{make([]float64, 31), make([]float64, 32)},
		[][]float64{rhs, rhs}, CGOptions{}); err == nil {
		t.Fatal("mismatched column accepted")
	}
	if _, err := SolveCGBatch(context.Background(), a, [][]float64{make([]float64, 32)},
		[][]float64{rhs, rhs}, CGOptions{}); err == nil {
		t.Fatal("xs/bs length mismatch accepted")
	}
	if it, err := SolveCGBatch(context.Background(), a, nil, nil, CGOptions{}); it != nil || err != nil {
		t.Fatalf("empty batch returned (%v, %v)", it, err)
	}
}

func TestSolveCGBatchCanceled(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		name := "sequential"
		n := 512
		if blocked {
			name = "blocked"
			n = ParallelThresholdRows + parallelGrainRows
		}
		t.Run(name, func(t *testing.T) {
			if blocked {
				forceBlocked(t)
			}
			a, rhs := chainSystem(n)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			xs := [][]float64{make([]float64, a.N), make([]float64, a.N)}
			_, err := SolveCGBatch(ctx, a, xs, [][]float64{rhs, rhs}, CGOptions{Tol: 1e-12})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
		})
	}
}

func TestSolveCGBatchNoConvergence(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		name := "sequential"
		n := 512
		if blocked {
			name = "blocked"
			n = ParallelThresholdRows + parallelGrainRows
		}
		t.Run(name, func(t *testing.T) {
			if blocked {
				forceBlocked(t)
			}
			a, rhs := chainSystem(n)
			xs := [][]float64{make([]float64, a.N), make([]float64, a.N)}
			it, err := SolveCGBatch(context.Background(), a, xs, [][]float64{rhs, rhs},
				CGOptions{Tol: 1e-14, MaxIter: 3})
			if !errors.Is(err, ErrNoConvergence) {
				t.Fatalf("error %v does not wrap ErrNoConvergence", err)
			}
			for c, got := range it {
				if got != 3 {
					t.Fatalf("column %d reported %d iterations, want the 3-iteration budget", c, got)
				}
			}
		})
	}
}

// The paired benchmarks compare the batched path against B sequential
// independent solves at B=8 (the service/replica batch width). The
// product-level ≥1.5× throughput assertion lives in the thermal package
// (TestSolveBatchThroughput), where shared assembly and hierarchy reuse —
// the real wins — are in play.
func BenchmarkSolveCGBatch8(b *testing.B) {
	a, xs, bs := batchProblem(64, 6, 8, 9)
	opt := CGOptions{Tol: 1e-8}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		work := cloneCols(xs)
		if _, err := SolveCGBatch(context.Background(), a, work, bs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveCGSerial8(b *testing.B) {
	a, xs, bs := batchProblem(64, 6, 8, 9)
	opt := CGOptions{Tol: 1e-8}
	cg := NewCGSolver(a)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		work := cloneCols(xs)
		for c := range bs {
			if _, err := cg.Solve(work[c], bs[c], opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}
