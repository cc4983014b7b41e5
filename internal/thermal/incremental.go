package thermal

import (
	"math"

	"tap25d/internal/material"
	"tap25d/internal/sparse"
)

// The incremental fast path exploits two invariants of the placement loop:
// the sparsity pattern of the conductance matrix never changes (the grid and
// stack are fixed), and a single simulated-annealing move only changes the
// chiplet-layer conductivity under one chiplet's old and new footprint. The
// model therefore assembles the matrix once into a sparse.Fixed, records
// which coordinate entries ("terms") depend on each cell's kChip, and on
// every later solve (1) re-rasterizes coverage/power only over the union of
// the previous and current footprints, and (2) rewrites only the terms and
// CSR value slots whose kChip inputs changed.
//
// Bit-reproducibility is load-bearing: the issue requires identical
// simulated-annealing trajectories, so every shortcut here must produce
// values bit-identical to the full rebuild. Three properties guarantee it:
// conductances are recomputed through the same helper functions the full
// assembly uses (same expression, same inputs → same bits); per-cell
// rasterization re-accumulates over sources in their original index order;
// and sparse.Fixed refreshes each value slot in the exact order a full Build
// would have summed its duplicates.

// chipDep kinds: which conductance formula a recorded entry uses.
const (
	depLatE   uint8 = iota // chip-layer lateral east: reads kChip(i,j), kChip(i,j+1)
	depLatN                // chip-layer lateral north: reads kChip(i,j), kChip(i+1,j)
	depVertDn              // vertical (chipLayer-1)->chipLayer: reads kChip(i,j)
	depVertUp              // vertical chipLayer->(chipLayer+1): reads kChip(i,j)
	depSpr                 // chip top -> spreader coupling: reads kChip(i,j)
)

// chipDep records one kChip-dependent conductance: its formula kind, the cell
// it is anchored at, and the index of the first of the four coordinate terms
// its AddSym produced.
type chipDep struct {
	kind uint8
	i, j int16
	term int32
}

// recordDep notes the next AddSym as kChip-dependent: its four terms start at
// the builder's current entry count.
func (m *Model) recordDep(kind uint8, i, j int) {
	m.plan = append(m.plan, chipDep{kind: kind, i: int16(i), j: int16(j), term: int32(m.builder.NumEntries())})
}

// addSymRecorded records the dependency and adds the symmetric conductance.
// AddSym drops zero values, which would desynchronize the recorded term
// indices — a zero conductance means a zero material conductivity, which the
// stack validation rejects, so this is a programming-error check.
func (m *Model) addSymRecorded(kind uint8, i, j, n1, n2 int, g float64) {
	m.recordDep(kind, i, j)
	m.builder.AddSym(n1, n2, g)
	if m.builder.NumEntries() != int(m.plan[len(m.plan)-1].term)+4 {
		panic("thermal: recorded conductance produced fewer than 4 entries (zero conductance?)")
	}
}

// buildCellDeps inverts the plan: for each chiplet-layer cell, the indices of
// the plan entries whose conductance reads that cell's kChip. Lateral entries
// read two cells and appear in both lists.
func (m *Model) buildCellDeps() {
	g := m.grid
	deps := make([][]int32, g*g)
	for di, d := range m.plan {
		c := int(d.i)*g + int(d.j)
		deps[c] = append(deps[c], int32(di))
		switch d.kind {
		case depLatE:
			deps[c+1] = append(deps[c+1], int32(di))
		case depLatN:
			deps[c+g] = append(deps[c+g], int32(di))
		}
	}
	m.cellDeps = deps
}

// depCond recomputes the conductance of plan entry d from the current kChip
// field, via the same helpers assembleFull uses.
func (m *Model) depCond(d chipDep) float64 {
	i, j := int(d.i), int(d.j)
	switch d.kind {
	case depLatE:
		return m.latCondE(m.chipLayer, i, j)
	case depLatN:
		return m.latCondN(m.chipLayer, i, j)
	case depVertDn:
		return m.vertCond(m.chipLayer-1, i, j)
	case depVertUp:
		return m.vertCond(m.chipLayer, i, j)
	case depSpr:
		return m.sprCouplingCond(i, j)
	}
	panic("thermal: unknown dependency kind")
}

// initIncremental performs the one-time full rasterize + recorded assembly
// and freezes the matrix pattern.
func (m *Model) initIncremental(sources []Source) error {
	if err := m.rasterize(sources); err != nil {
		return err
	}
	m.plan = m.plan[:0]
	m.assembleFull(true)
	m.fixed = m.builder.BuildFixed()
	// The delta path never reads the coordinate list again; drop it rather
	// than pin 16 bytes per entry for the model's lifetime. The transient
	// and liquid solves, which assemble their own matrices, regrow it on
	// demand.
	m.builder = sparse.NewBuilder(m.nNodes)
	m.cg = sparse.NewCGSolver(m.fixed.Mat)
	m.buildCellDeps()
	g2 := m.grid * m.grid
	if m.cellEpoch == nil {
		m.cellEpoch = make([]int32, g2)
	}
	m.depEpoch = make([]int32, len(m.plan))
	m.slotEpoch = make([]int32, m.fixed.Mat.NNZ())
	if m.ctr != nil {
		m.ctr.FullAssembles++
	}
	return nil
}

// invalidateIncremental drops the frozen matrix so the next Solve rebuilds it
// from scratch. The liquid and transient solvers call it because their own
// rasterize/assemble passes overwrite the coverage, power and kChip fields
// the incremental state is keyed on.
func (m *Model) invalidateIncremental() {
	m.fixed = nil
	m.rebuild = false
	m.cg = nil
	m.plan = m.plan[:0]
	m.cellDeps = nil
	m.prevSources = m.prevSources[:0]
}

// reassembleFixed rebuilds every matrix value in the frozen pattern from a
// full rasterize: each kChip-dependent conductance is recomputed over the
// whole grid and every slot re-summed. The placement-independent terms never
// change, so the values equal those initIncremental assembles for the same
// sources, bit for bit. A failed rasterize leaves the rebuild pending.
func (m *Model) reassembleFixed(sources []Source) error {
	if err := m.rasterize(sources); err != nil {
		return err
	}
	for _, d := range m.plan {
		m.rewriteDep(d)
	}
	m.fixed.RefreshAll()
	m.rebuild = false
	if m.ctr != nil {
		m.ctr.FullAssembles++
	}
	return nil
}

// rewriteDep recomputes plan entry d's conductance from the current kChip
// field and rewrites its four terms; the caller refreshes their slots.
func (m *Model) rewriteDep(d chipDep) {
	g := m.depCond(d)
	f := m.fixed
	f.SetTerm(d.term, g)
	f.SetTerm(d.term+1, g)
	f.SetTerm(d.term+2, -g)
	f.SetTerm(d.term+3, -g)
}

// rasterizeDelta updates cov, power and kChip over the union of the previous
// and new source footprints, returning the cells whose kChip actually
// changed. Every touched cell is reset and re-accumulated over the new
// sources in index order, reproducing the full rasterize bit for bit.
func (m *Model) rasterizeDelta(sources []Source) ([]int32, error) {
	g := m.grid
	// Validate before mutating anything, with the same errors rasterize
	// reports, so a bad source list leaves the incremental state consistent.
	for _, s := range sources {
		if s.Power < 0 {
			return nil, errNegativePower(s.Power)
		}
		if s.Rect.W <= 0 || s.Rect.H <= 0 {
			return nil, errBadFootprint(s.Rect)
		}
	}

	m.epoch++
	ep := m.epoch
	m.dirtyCells = m.dirtyCells[:0]
	mark := func(list []Source) {
		for _, s := range list {
			i0, i1, j0, j1 := m.sourceWindow(s)
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					c := i*g + j
					if m.cellEpoch[c] != ep {
						m.cellEpoch[c] = ep
						m.dirtyCells = append(m.dirtyCells, int32(c))
					}
				}
			}
		}
	}
	mark(m.prevSources)
	mark(sources)

	for _, c := range m.dirtyCells {
		i, j := int(c)/g, int(c)%g
		m.cov[c] = 0
		m.power[m.devNode(m.chipLayer, i, j)] = 0
	}

	// Re-accumulate the dirty cells from the new sources, outer loop over
	// sources exactly as in the full rasterize so each cell sees the same
	// sequence of additions. Every cell in a new source's window is dirty by
	// construction, so no per-cell dirty check is needed here.
	cellAreaMM := (m.widthMM / float64(g)) * (m.heightMM / float64(g))
	for _, s := range sources {
		perArea := s.Power / s.Rect.Area()
		i0, i1, j0, j1 := m.sourceWindow(s)
		for i := i0; i < i1; i++ {
			for j := j0; j < j1; j++ {
				ov := m.cellRectMM(i, j).OverlapArea(s.Rect)
				if ov <= 0 {
					continue
				}
				frac := ov / cellAreaMM
				m.cov[i*g+j] = math.Min(1, m.cov[i*g+j]+frac)
				m.power[m.devNode(m.chipLayer, i, j)] += perArea * ov
			}
		}
	}

	kSi := material.Silicon.Conductivity
	base := m.stack.Layers[m.chipLayer].Base.Conductivity
	m.changedCells = m.changedCells[:0]
	for _, c := range m.dirtyCells {
		nk := base + (kSi-base)*m.cov[c]
		if nk != m.kChip[c] {
			m.kChip[c] = nk
			m.changedCells = append(m.changedCells, c)
		}
	}
	return m.changedCells, nil
}

// assembleDelta rewrites the matrix values affected by the changed cells:
// each dependent conductance is recomputed once, its four terms rewritten,
// and each touched CSR slot refreshed once in its recorded summation order.
func (m *Model) assembleDelta(changed []int32) {
	if len(changed) == 0 {
		return
	}
	ep := m.epoch
	f := m.fixed
	m.dirtySlots = m.dirtySlots[:0]
	for _, c := range changed {
		for _, di := range m.cellDeps[c] {
			if m.depEpoch[di] == ep {
				continue
			}
			m.depEpoch[di] = ep
			d := m.plan[di]
			m.rewriteDep(d)
			for o := int32(0); o < 4; o++ {
				s := f.TermSlot(d.term + o)
				if m.slotEpoch[s] != ep {
					m.slotEpoch[s] = ep
					m.dirtySlots = append(m.dirtySlots, s)
				}
			}
		}
	}
	for _, s := range m.dirtySlots {
		f.RefreshSlot(s)
	}
}
