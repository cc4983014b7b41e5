package thermal

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tap25d/internal/sparse"
)

// directGalerkin is a test-local copy of the Galerkin product as the
// hierarchy formed it before its two one-dimensional passes: row I of
// Pᵀ·A·P scattered straight from each of its ≤16 fine children's rows
// through each entry's ≤4 coarse parents, and its pattern from the same
// walk, in ascending order. fine is a line-major level of an nxF×nyF
// plane; the coarse level is line-major when coarseLine is set and
// layer-major otherwise (the coarsest level).
func directGalerkin(fine *sparse.CSR, layers, nxF, nyF int, coarseLine bool) (rowPtr, col []int32, val []float64) {
	pPtr, pCol, pW := refProlongation(nxF, nyF)
	nxC, nyC := levelSize(nxF, 1), levelSize(nyF, 1)
	nC := nxC * nyC
	ptPtr := make([]int32, nC+1)
	for _, c := range pCol {
		ptPtr[c+1]++
	}
	for c := 0; c < nC; c++ {
		ptPtr[c+1] += ptPtr[c]
	}
	ptCol, ptW := make([]int32, len(pCol)), make([]float64, len(pW))
	next := slices.Clone(ptPtr[:nC])
	for f := 0; f+1 < len(pPtr); f++ {
		for k := pPtr[f]; k < pPtr[f+1]; k++ {
			c := pCol[k]
			ptCol[next[c]], ptW[next[c]] = int32(f), pW[k]
			next[c]++
		}
	}
	row := func(p, c int) int {
		if coarseLine {
			return c*layers + p
		}
		return p*nC + c
	}
	n := layers * nC
	ws, marker := make([]float64, n), make([]int, n)
	for i := range marker {
		marker[i] = -1
	}
	rowPtr = make([]int32, n+1)
	for I := 0; I < n; I++ {
		P, C := I/nC, I%nC
		if coarseLine {
			P, C = I%layers, I/layers
		}
		start := len(col)
		for q := ptPtr[C]; q < ptPtr[C+1]; q++ {
			fi := int(ptCol[q])*layers + P
			for k := fine.RowPtr[fi]; k < fine.RowPtr[fi+1]; k++ {
				v := ptW[q] * fine.Val[k]
				pj, cj := int(fine.Col[k])%layers, int(fine.Col[k])/layers
				for m := pPtr[cj]; m < pPtr[cj+1]; m++ {
					J := row(pj, int(pCol[m]))
					if marker[J] != I {
						marker[J] = I
						col = append(col, int32(J))
					}
					ws[J] += v * pW[m]
				}
			}
		}
		slices.Sort(col[start:])
		for _, J := range col[start:] {
			val = append(val, ws[J])
			ws[J] = 0
		}
		rowPtr[I+1] = int32(len(col))
	}
	return rowPtr, col, val
}

// TestGalerkinMatchesDirectProduct: the hierarchy forms every coarse
// operator as P_yᵀ·(P_xᵀ·A·P_x)·P_y, which is Pᵀ·A·P because the bilinear
// prolongation factors exactly, P = P_y ⊗ P_x. On the four precondCases
// stacks, at every hierarchy shape the pinned hashes cover, at the
// two-block grid 128 and through the odd planes of grids 17 and 66, each
// level's pattern must equal the direct product's exactly, and each value
// must be within 1e-13 of it relative to its row's largest entry: the two
// passes only reorder the sums.
func TestGalerkinMatchesDirectProduct(t *testing.T) {
	for _, pc := range precondCases() {
		for _, g := range []int{16, 17, 24, 64, 66, 128} {
			t.Run(fmt.Sprintf("%s/grid%d", pc.name, g), func(t *testing.T) {
				if g > 64 && testing.Short() {
					t.Skip("grid-66 and grid-128 models are slow under -short")
				}
				m, geo := mgModel(t, pc, g)
				last := m.mg.Levels() - 1
				if last < 1 {
					t.Fatalf("grid %d built %d levels, want coarsening", g, last+1)
				}
				for l := 1; l <= last; l++ {
					got := m.mg.Operator(l)
					rowPtr, col, val := directGalerkin(m.mg.Operator(l-1), geo.Layers, levelSize(geo.Nx, l-1), levelSize(geo.Ny, l-1), l < last)
					if !slices.Equal(got.RowPtr, rowPtr) || !slices.Equal(got.Col, col) {
						t.Fatalf("level %d: pattern differs from the direct product's", l)
					}
					worst := 0.0
					for i := 0; i < got.N; i++ {
						scale := 0.0
						for _, v := range val[rowPtr[i]:rowPtr[i+1]] {
							scale = math.Max(scale, math.Abs(v))
						}
						for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
							worst = math.Max(worst, math.Abs(got.Val[k]-val[k])/scale)
						}
					}
					if worst > 1e-13 {
						t.Errorf("level %d: values deviate from the direct product by %.3g of their row's largest entry", l, worst)
					}
				}
			})
		}
	}
}

// TestCoarsestSolveMatchesDense: the coarsest level is factored within its
// envelope, which leaves out only products with an exact zero, so on the
// real stacks its solve must equal the dense Cholesky solve bit for bit. A
// hierarchy built over the coarsest operator itself, on its plane of at
// most 7×7 columns, is that one level, so its Apply is the envelope solve
// of a factor of the same matrix. Checked on the four precondCases stacks
// at grids 16, 24, 64 and 128, and at the odd grids 17 and 100.
func TestCoarsestSolveMatchesDense(t *testing.T) {
	for _, pc := range precondCases() {
		for _, g := range []int{16, 17, 24, 64, 100, 128} {
			t.Run(fmt.Sprintf("%s/grid%d", pc.name, g), func(t *testing.T) {
				if g > 64 && testing.Short() {
					t.Skip("grid-100 and grid-128 models are slow under -short")
				}
				m, geo := mgModel(t, pc, g)
				last := m.mg.Levels() - 1
				a := m.mg.Operator(last)
				geo.Nx, geo.Ny = levelSize(geo.Nx, last), levelSize(geo.Ny, last)
				one, err := sparse.NewMultigrid(a, geo)
				if err != nil {
					t.Fatal(err)
				}
				if one.Levels() != 1 {
					t.Fatalf("coarsest %d×%d plane built %d levels", geo.Nx, geo.Ny, one.Levels())
				}
				L := refCholesky(t, a)
				r, got, want := make([]float64, a.N), make([]float64, a.N), make([]float64, a.N)
				for trial := 0; trial < 3; trial++ {
					for i := range r {
						r[i] = float64((i*7919+trial*104729)%1009)/1009 - 0.5
					}
					one.Apply(got, r)
					refCholSolve(L, want, r)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("trial %d: z[%d] = %v, dense solve %v", trial, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}
