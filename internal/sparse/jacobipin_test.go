package sparse

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// solutionHash returns FNV-1a over the float64 bits of every column, in
// column order.
func solutionHash(xs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for _, v := range x {
			u := math.Float64bits(v)
			for k := range b {
				b[k] = byte(u >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// pinRHS returns n deterministic right-hand-side values for column c.
func pinRHS(n, c int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7919+c*104729)%1009) / 1009
	}
	return b
}

// TestJacobiCGBitsPinned pins the bits and iteration counts of cold
// Jacobi-preconditioned (nil Precond) CG solves in absolute terms. The
// batch-vs-serial tests only compare two solver paths with each other; this
// one catches a refactor that moves both together. It covers the three
// regimes the default path runs in: CGSolver on a serial-size system, CGSolver
// on a system at ParallelThresholdRows (row-parallel products whenever
// GOMAXPROCS ≥ 2), and SolveCGBatch's blocked engine at width 8. The hashes
// were taken with the hand-fused Jacobi loops that CGSolver and SolveCGBatch
// carried before Jacobi became a Preconditioner, so they also prove that
// change bit-identical. Solutions must not depend on GOMAXPROCS; CI runs this
// test at 1 and 4.
func TestJacobiCGBitsPinned(t *testing.T) {
	opt := CGOptions{Tol: 1e-9}
	for _, tc := range []struct {
		name      string
		g, l      int
		wantIters int
		wantHash  uint64
	}{
		{"serial", 16, 4, 98, 0x4b9185b76a3cc625},
		{"parallel-size", 32, 16, 230, 0x60fc06c3d89956ca}, // ParallelThresholdRows rows
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := grid3D(tc.g, tc.l)
			x := make([]float64, a.N)
			it, err := NewCGSolver(a).Solve(x, pinRHS(a.N, 0), opt)
			if err != nil {
				t.Fatal(err)
			}
			if h := solutionHash(x); it != tc.wantIters || h != tc.wantHash {
				t.Errorf("%d iterations, hash %#x; want %d, %#x", it, h, tc.wantIters, tc.wantHash)
			}
		})
	}
	t.Run("blocked-batch", func(t *testing.T) {
		forceBlocked(t)
		a := grid3D(32, 16)
		xs := make([][]float64, 8)
		bs := make([][]float64, 8)
		for c := range bs {
			xs[c] = make([]float64, a.N)
			bs[c] = pinRHS(a.N, c)
		}
		its, err := SolveCGBatch(context.Background(), a, xs, bs, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{230, 220, 230, 226, 225, 223, 227, 231}
		if h := solutionHash(xs...); fmt.Sprint(its) != fmt.Sprint(want) || h != 0x7b63072830e51760 {
			t.Errorf("iterations %v, hash %#x; want %v, 0x7b63072830e51760", its, h, want)
		}
	})
}
