// Package lp implements a dense two-phase simplex solver for linear programs
// and a branch-and-bound wrapper for mixed-integer linear programs. It stands
// in for the IBM CPLEX solver the paper uses for its routing optimization
// (Section III-B): problems have nonnegative variables, a linear objective,
// and <=, >= or == constraints.
//
// The solver targets the sizes arising from TAP-2.5D routing MILPs (hundreds
// of rows, thousands of columns) and favors robustness over raw speed:
// Dantzig pricing with an automatic switch to Bland's rule guards against
// cycling, and branch and bound explores most-fractional variables first.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // ==
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Sense is the optimization direction.
type Sense int

// Optimization senses.
const (
	Minimize Sense = iota
	Maximize
)

// Problem is a linear (or mixed-integer) program over nonnegative variables:
//
//	opt  c'x   subject to   A x (<=|>=|==) b,   x >= 0
type Problem struct {
	Sense Sense
	// C has one cost per variable.
	C []float64
	// A holds one dense row per constraint.
	A [][]float64
	// Rel[i] relates row i of A to B[i].
	Rel []Rel
	// B is the right-hand side.
	B []float64
	// Integer marks variables that must take integer values (MILP only);
	// nil means all continuous.
	Integer []bool
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("lp: no variables")
	}
	if len(p.A) != len(p.B) || len(p.A) != len(p.Rel) {
		return fmt.Errorf("lp: inconsistent constraint counts: A=%d B=%d Rel=%d", len(p.A), len(p.B), len(p.Rel))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if p.Integer != nil && len(p.Integer) != n {
		return fmt.Errorf("lp: Integer mask has %d entries, want %d", len(p.Integer), n)
	}
	return nil
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution holds the result of a solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const eps = 1e-9

// SolveLP solves the LP relaxation of p with two-phase simplex.
func SolveLP(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := newTableau(p)
	return t.solve()
}

// tableau is a dense simplex tableau in canonical form.
//
// Columns: n structural variables, then one slack/surplus per inequality row,
// then one artificial per row that needs one. Rows: m constraints plus the
// objective row (stored separately).
type tableau struct {
	m, n     int       // constraints, structural vars
	cols     int       // total columns
	a        []float64 // m x cols, row-major
	b        []float64 // m
	cost     []float64 // phase-2 cost per column (minimization)
	basis    []int     // basic variable per row
	nArt     int
	artStart int
	sense    Sense
}

func newTableau(p *Problem) *tableau {
	m, n := len(p.A), len(p.C)
	// Count slack columns (one per LE/GE row).
	nSlack := 0
	for _, r := range p.Rel {
		if r != EQ {
			nSlack++
		}
	}
	t := &tableau{m: m, n: n, sense: p.Sense}
	// Artificials are allocated pessimistically (one per row); unused ones
	// are simply never made basic.
	t.artStart = n + nSlack
	t.cols = t.artStart + m
	t.a = make([]float64, m*t.cols)
	t.b = make([]float64, m)
	t.cost = make([]float64, t.cols)
	t.basis = make([]int, m)

	sign := 1.0
	if p.Sense == Maximize {
		sign = -1
	}
	for j := 0; j < n; j++ {
		t.cost[j] = sign * p.C[j]
	}

	slack := n
	for i := 0; i < m; i++ {
		row := t.a[i*t.cols : (i+1)*t.cols]
		copy(row, p.A[i])
		rhs := p.B[i]
		rel := p.Rel[i]
		// Normalize to nonnegative RHS.
		if rhs < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		t.b[i] = rhs
		switch rel {
		case LE:
			row[slack] = 1
			t.basis[i] = slack
			slack++
		case GE:
			row[slack] = -1
			slack++
			art := t.artStart + t.nArt
			row[art] = 1
			t.basis[i] = art
			t.nArt++
		case EQ:
			art := t.artStart + t.nArt
			row[art] = 1
			t.basis[i] = art
			t.nArt++
		}
	}
	return t
}

// maxSimplexIters bounds each phase. The routing MILPs pivot a few hundred
// times; this limit only trips on pathological inputs.
const maxSimplexIters = 200000

func (t *tableau) solve() (*Solution, error) {
	// Phase 1: minimize sum of artificials.
	if t.nArt > 0 {
		phase1 := make([]float64, t.cols)
		for k := 0; k < t.nArt; k++ {
			phase1[t.artStart+k] = 1
		}
		status, obj := t.iterate(phase1, t.cols)
		if status == IterLimit {
			return &Solution{Status: IterLimit}, nil
		}
		if obj > 1e-6 {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive any remaining artificials out of the basis.
		for i := 0; i < t.m; i++ {
			if t.basis[i] >= t.artStart {
				if !t.pivotOutArtificial(i) {
					// Redundant row; harmless to leave the artificial basic
					// at value zero, but exclude artificial columns from
					// phase 2 pricing below.
					continue
				}
			}
		}
	}
	// Phase 2 prices only real columns.
	status, obj := t.iterate(t.cost, t.artStart)
	switch status {
	case IterLimit:
		return &Solution{Status: IterLimit}, nil
	case Unbounded:
		return &Solution{Status: Unbounded}, nil
	}
	x := make([]float64, t.n)
	for i, bv := range t.basis {
		if bv < t.n {
			x[bv] = t.b[i]
		}
	}
	if t.sense == Maximize {
		obj = -obj
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// pivotOutArtificial tries to replace the artificial basic variable of row i
// with a real column having a nonzero coefficient. Returns false when the
// row is all zeros over real columns (redundant constraint).
func (t *tableau) pivotOutArtificial(i int) bool {
	row := t.a[i*t.cols : (i+1)*t.cols]
	for j := 0; j < t.artStart; j++ {
		if math.Abs(row[j]) > 1e-7 {
			t.pivot(i, j)
			return true
		}
	}
	return false
}

// iterate runs simplex with the given cost vector, pricing columns
// [0, limit). Returns the status and the objective value.
func (t *tableau) iterate(cost []float64, limit int) (Status, float64) {
	m, cols := t.m, t.cols
	// Reduced costs are computed from scratch each iteration over basic
	// rows: z_j = c_j - sum_i c_B(i) * a(i,j).
	cb := make([]float64, m)
	for iter := 0; iter < maxSimplexIters; iter++ {
		for i := 0; i < m; i++ {
			cb[i] = cost[t.basis[i]]
		}
		// Pricing: Dantzig rule normally, Bland's rule past a threshold to
		// break cycles.
		bland := iter > maxSimplexIters/2
		enter := -1
		best := -eps
		for j := 0; j < limit; j++ {
			rc := cost[j]
			for i := 0; i < m; i++ {
				if cb[i] != 0 {
					rc -= cb[i] * t.a[i*cols+j]
				}
			}
			if rc < -1e-9 {
				if bland {
					enter = j
					break
				}
				if rc < best {
					best = rc
					enter = j
				}
			}
		}
		if enter < 0 {
			// Optimal for this phase.
			var obj float64
			for i := 0; i < m; i++ {
				obj += cost[t.basis[i]] * t.b[i]
			}
			return Optimal, obj
		}
		// Ratio test.
		leave := -1
		minRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			aij := t.a[i*cols+enter]
			if aij > eps {
				ratio := t.b[i] / aij
				if ratio < minRatio-eps ||
					(ratio < minRatio+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					minRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, 0
		}
		t.pivot(leave, enter)
	}
	return IterLimit, 0
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	cols := t.cols
	prow := t.a[leave*cols : (leave+1)*cols]
	pval := prow[enter]
	inv := 1 / pval
	for j := range prow {
		prow[j] *= inv
	}
	t.b[leave] *= inv
	prow[enter] = 1 // exact

	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		row := t.a[i*cols : (i+1)*cols]
		f := row[enter]
		if f == 0 {
			continue
		}
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
		t.b[i] -= f * t.b[leave]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	t.basis[leave] = enter
}

// MILPOptions bounds the branch-and-bound search.
type MILPOptions struct {
	// MaxNodes caps explored B&B nodes (default 10000).
	MaxNodes int
}

// intTol is the integrality tolerance of the branch-and-bound search.
const intTol = 1e-6

// SolveMILP solves p with branch and bound on the variables marked Integer.
// The relaxations are solved by SolveLP with bound rows appended. When the
// node limit is hit, the best integer solution found so far (if any) is
// returned with Status Optimal; otherwise Status IterLimit.
func SolveMILP(p *Problem, opt MILPOptions) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Integer == nil {
		return SolveLP(p)
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 10000
	}

	type bound struct {
		v   int
		rel Rel
		val float64
	}
	type node struct {
		bounds []bound
	}

	sign := 1.0
	if p.Sense == Maximize {
		sign = -1
	}

	var best *Solution
	bestObj := math.Inf(1) // in minimization terms (sign*objective)

	stack := []node{{}}
	nodes := 0
	for len(stack) > 0 && nodes < maxNodes {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		sub := &Problem{Sense: p.Sense, C: p.C, A: p.A, Rel: p.Rel, B: p.B}
		if len(nd.bounds) > 0 {
			sub.A = append([][]float64{}, p.A...)
			sub.Rel = append([]Rel{}, p.Rel...)
			sub.B = append([]float64{}, p.B...)
			for _, bd := range nd.bounds {
				row := make([]float64, len(p.C))
				row[bd.v] = 1
				sub.A = append(sub.A, row)
				sub.Rel = append(sub.Rel, bd.rel)
				sub.B = append(sub.B, bd.val)
			}
		}
		sol, err := SolveLP(sub)
		if err != nil {
			return nil, err
		}
		if sol.Status != Optimal {
			continue // infeasible/limit branch: prune
		}
		relaxObj := sign * sol.Objective
		if relaxObj >= bestObj-1e-9 {
			continue // bound prune
		}
		// Find most fractional integer variable.
		frac := -1
		fracDist := 0.0
		for v, isInt := range p.Integer {
			if !isInt {
				continue
			}
			f := sol.X[v] - math.Floor(sol.X[v])
			d := math.Min(f, 1-f)
			if d > intTol && d > fracDist {
				fracDist = d
				frac = v
			}
		}
		if frac < 0 {
			// Integer feasible.
			if relaxObj < bestObj {
				bestObj = relaxObj
				rounded := make([]float64, len(sol.X))
				copy(rounded, sol.X)
				for v, isInt := range p.Integer {
					if isInt {
						rounded[v] = math.Round(rounded[v])
					}
				}
				best = &Solution{Status: Optimal, X: rounded, Objective: sol.Objective}
			}
			continue
		}
		fl := math.Floor(sol.X[frac])
		// Explore the "down" branch last (on top of the stack first) —
		// a mild heuristic that finds integer solutions early on
		// transportation-like problems.
		stack = append(stack,
			node{bounds: append(append([]bound{}, nd.bounds...), bound{frac, GE, fl + 1})},
			node{bounds: append(append([]bound{}, nd.bounds...), bound{frac, LE, fl})},
		)
	}
	if best != nil {
		return best, nil
	}
	if nodes >= maxNodes {
		return &Solution{Status: IterLimit}, nil
	}
	return &Solution{Status: Infeasible}, nil
}
