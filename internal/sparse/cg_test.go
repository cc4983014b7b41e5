package sparse

import (
	"math/rand"
	"testing"
)

// randPattern returns a Builder loaded with a random pattern (duplicates
// included) plus the (i, j) sequence of its Add calls, so tests can replay
// the identical pattern with different values.
func randPattern(n, adds int, rng *rand.Rand) (*Builder, [][2]int) {
	b := NewBuilder(n)
	seq := make([][2]int, 0, adds)
	for k := 0; k < adds; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		b.Add(i, j, 0.5+rng.Float64())
		seq = append(seq, [2]int{i, j})
	}
	return b, seq
}

// replay builds a fresh CSR from the same Add sequence with the given values.
func replay(n int, seq [][2]int, vals []float64) *CSR {
	b := NewBuilder(n)
	for k, ij := range seq {
		b.Add(ij[0], ij[1], vals[k])
	}
	return b.Build()
}

func sameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.N != want.N || len(got.Val) != len(want.Val) {
		t.Fatalf("shape mismatch: N=%d nnz=%d, want N=%d nnz=%d", got.N, len(got.Val), want.N, len(want.Val))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Val {
		if got.Col[k] != want.Col[k] {
			t.Fatalf("Col[%d] = %d, want %d", k, got.Col[k], want.Col[k])
		}
		if got.Val[k] != want.Val[k] { // bitwise: summation order must match
			t.Fatalf("Val[%d] = %v, want %v", k, got.Val[k], want.Val[k])
		}
	}
}

// TestBuildFixedMatchesBuild: the CSR assembled by BuildFixed must equal the
// one from Build bit for bit, duplicates summed in the same order.
func TestBuildFixedMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(40)
		b, _ := randPattern(n, 3*n+rng.Intn(5*n), rng)
		sameCSR(t, b.BuildFixed().Mat, b.Build())
	}
}

// TestFixedRefreshAllMatchesRebuild: after overwriting every term in place,
// RefreshAll must reproduce exactly the CSR a from-scratch Build would give
// for the same Add sequence with the new values.
func TestFixedRefreshAllMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(40)
		b, seq := randPattern(n, 3*n+rng.Intn(5*n), rng)
		f := b.BuildFixed()
		vals := make([]float64, f.NumTerms())
		for k := range vals {
			vals[k] = 0.5 + rng.Float64()
			f.SetTerm(int32(k), vals[k])
		}
		f.RefreshAll()
		sameCSR(t, f.Mat, replay(n, seq, vals))
	}
}

// TestFixedRefreshSlotMatchesRebuild: updating a random subset of terms and
// refreshing only their slots must agree bitwise with a full rebuild.
func TestFixedRefreshSlotMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(40)
		b, seq := randPattern(n, 3*n+rng.Intn(5*n), rng)
		f := b.BuildFixed()
		vals := make([]float64, f.NumTerms())
		for k := range vals {
			vals[k] = f.terms[k]
		}
		for changes := 1 + rng.Intn(8); changes > 0; changes-- {
			k := int32(rng.Intn(f.NumTerms()))
			vals[k] = 0.5 + rng.Float64()
			f.SetTerm(k, vals[k])
			f.RefreshSlot(f.TermSlot(k))
		}
		sameCSR(t, f.Mat, replay(n, seq, vals))
	}
}

// TestCGSolverReuseMatchesFreshSolves: one CGSolver reused across in-place
// matrix updates and warm-started solves must produce solutions and iteration
// counts bit-identical to fresh-solver solves with the same history.
func TestCGSolverReuseMatchesFreshSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 160
	b := NewBuilder(n)
	var seq [][2]int
	addSym := func(i, j int, g float64) {
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.Add(i, j, -g)
		b.Add(j, i, -g)
		seq = append(seq, [2]int{i, i}, [2]int{j, j}, [2]int{i, j}, [2]int{j, i})
	}
	conds := make([]float64, 0)
	for i := 0; i+1 < n; i++ {
		g := 0.5 + rng.Float64()
		addSym(i, i+1, g)
		conds = append(conds, g, g, -g, -g)
	}
	b.Add(0, 0, 2)
	seq = append(seq, [2]int{0, 0})
	conds = append(conds, 2)

	f := b.BuildFixed()
	solver := NewCGSolver(f.Mat)
	xReused := make([]float64, n)
	xFresh := make([]float64, n)
	rhs := make([]float64, n)
	for round := 0; round < 6; round++ {
		// Perturb a few chain conductances in place (all 4 terms of a bond).
		for c := 0; c < 3; c++ {
			bond := rng.Intn(n - 1)
			g := 0.5 + rng.Float64()
			for q, sign := range []float64{1, 1, -1, -1} {
				k := int32(4*bond + q)
				conds[k] = sign * g
				f.SetTerm(k, conds[k])
				f.RefreshSlot(f.TermSlot(k))
			}
		}
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		itReused, err := solver.Solve(xReused, rhs, CGOptions{Tol: 1e-9})
		if err != nil {
			t.Fatalf("round %d: reused: %v", round, err)
		}
		itFresh, err := NewCGSolver(replay(n, seq, conds)).Solve(xFresh, rhs, CGOptions{Tol: 1e-9})
		if err != nil {
			t.Fatalf("round %d: fresh: %v", round, err)
		}
		if itReused != itFresh {
			t.Fatalf("round %d: %d iterations reused vs %d fresh", round, itReused, itFresh)
		}
		for i := range xReused {
			if xReused[i] != xFresh[i] { // bitwise
				t.Fatalf("round %d: x[%d] = %v reused vs %v fresh", round, i, xReused[i], xFresh[i])
			}
		}
	}
}

// raggedCSR builds a matrix whose row lengths cover the unrolled kernel's
// edge cases: empty rows, single-entry rows, and odd/even lengths.
func raggedCSR(n int, rng *rand.Rand) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for e := rng.Intn(6); e > 0; e-- {
			b.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return b.Build()
}

// TestMulVecParallelMatchesSerial: row partitioning must be bit-identical to
// the serial product for any worker count.
func TestMulVecParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := raggedCSR(300, rng)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.N)
	a.MulVec(want, x)
	for _, workers := range []int{2, 3, 7, 64, 1000} {
		got := make([]float64, a.N)
		a.MulVecParallel(got, x, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: y[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMulVecDotMatchesSeparate: the fused (and unrolled, pointer-gathered)
// kernel must return the same product vector and the same dot, bit for bit,
// as MulVec followed by a serial dot — on both the serial and parallel paths.
func TestMulVecDotMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 10; trial++ {
		a := raggedCSR(50+rng.Intn(300), rng)
		x := make([]float64, a.N)
		w := make([]float64, a.N)
		for i := range x {
			x[i] = rng.NormFloat64()
			w[i] = rng.NormFloat64()
		}
		want := make([]float64, a.N)
		a.MulVec(want, x)
		var wantDot float64
		for i, v := range want {
			wantDot += w[i] * v
		}
		s := NewCGSolver(a)
		for _, workers := range []int{1, 4} {
			s.workers = workers
			got := make([]float64, a.N)
			gotDot := s.mulVecDot(got, x, w)
			if gotDot != wantDot {
				t.Fatalf("trial %d workers=%d: dot = %v, want %v", trial, workers, gotDot, wantDot)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d workers=%d: y[%d] = %v, want %v", trial, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// grid3D builds an l-layer g×g 7-point Laplacian with grounding — the shape
// of the thermal stack's conductance matrix at the benchmark resolution.
func grid3D(g, l int) *CSR {
	b := NewBuilder(g * g * l)
	id := func(z, i, j int) int { return z*g*g + i*g + j }
	for z := 0; z < l; z++ {
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				if i+1 < g {
					b.AddSym(id(z, i, j), id(z, i+1, j), 1)
				}
				if j+1 < g {
					b.AddSym(id(z, i, j), id(z, i, j+1), 1)
				}
				if z+1 < l {
					b.AddSym(id(z, i, j), id(z+1, i, j), 5)
				}
				if z == l-1 {
					b.AddDiag(id(z, i, j), 0.5)
				}
			}
		}
	}
	return b.Build()
}

// BenchmarkCSRMulVec measures the serial sparse product on a thermal-stack
// sized system (24×24 grid, 8 layers — the E1 benchmark resolution).
func BenchmarkCSRMulVec(b *testing.B) {
	a := grid3D(24, 8)
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

// BenchmarkSolveCG measures a cold CG solve on the same system through the
// reusable solver (scratch allocated once, as in the placer's inner loop).
func BenchmarkSolveCG(b *testing.B) {
	a := grid3D(24, 8)
	s := NewCGSolver(a)
	rhs := make([]float64, a.N)
	rhs[a.N/2] = 100
	x := make([]float64, a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := s.Solve(x, rhs, CGOptions{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOnIterationObservesResiduals: the OnIteration hook must fire once per
// iteration (plus the initial residual at iteration 0), report monotonically
// identifiable residual values the solver itself computed, and leave the
// solution bit-identical to a hook-free solve.
func TestOnIterationObservesResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a, want := randSPD(120, rng)
	rhs := make([]float64, 120)
	a.MulVec(rhs, want)

	plain := make([]float64, 120)
	itPlain, err := NewCGSolver(a).Solve(plain, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}

	var iters []int
	var residuals []float64
	hooked := make([]float64, 120)
	itHooked, err := NewCGSolver(a).Solve(hooked, rhs, CGOptions{
		Tol: 1e-10,
		OnIteration: func(it int, res float64) {
			iters = append(iters, it)
			residuals = append(residuals, res)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if itHooked != itPlain {
		t.Fatalf("hooked solve took %d iterations, plain %d", itHooked, itPlain)
	}
	for i := range plain {
		if hooked[i] != plain[i] {
			t.Fatalf("x[%d] differs with hook: %v vs %v", i, hooked[i], plain[i])
		}
	}
	if len(iters) != itHooked+1 {
		t.Fatalf("hook fired %d times for %d iterations", len(iters), itHooked)
	}
	for i, it := range iters {
		if it != i {
			t.Fatalf("iteration sequence %v not 0..n", iters)
		}
	}
	if residuals[0] <= residuals[len(residuals)-1] {
		t.Fatalf("residual did not decrease: first %g last %g", residuals[0], residuals[len(residuals)-1])
	}
	if residuals[len(residuals)-1] > 1e-8 {
		t.Fatalf("final residual %g not converged", residuals[len(residuals)-1])
	}
}

// TestOnIterationWarmConverged: a warm start that is already converged still
// reports its initial residual at iteration 0.
func TestOnIterationWarmConverged(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, want := randSPD(60, rng)
	rhs := make([]float64, 60)
	a.MulVec(rhs, want)
	x := make([]float64, 60)
	copy(x, want)
	var calls int
	it, err := NewCGSolver(a).Solve(x, rhs, CGOptions{
		Tol:         1e-6,
		OnIteration: func(int, float64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if it != 0 || calls != 1 {
		t.Fatalf("warm-converged solve: it=%d hook calls=%d, want 0 and 1", it, calls)
	}
}
