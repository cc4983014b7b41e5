// Package tdp implements the thermal design power analysis of Section IV-B:
// given a placement, find the TDP envelope — the maximum total chiplet power
// that keeps the peak temperature at or below the critical threshold — by
// scaling a designated subset of chiplets' power (the paper varies the CPUs'
// power of the CPU-DRAM system) and bisecting on the thermal model.
package tdp

import (
	"fmt"

	"tap25d/internal/chiplet"
	"tap25d/internal/thermal"
)

// Options configures the envelope search.
type Options struct {
	// CriticalC is the temperature constraint (default 85, as in the paper).
	CriticalC float64
	// VaryIndices are the chiplets whose power is scaled; nil scales all.
	VaryIndices []int
}

// maxScale bounds the search at 16× the varied chiplets' nominal power, and
// tolW is the envelope resolution in watts.
const (
	maxScale = 16
	tolW     = 1
)

// Result reports a TDP envelope.
type Result struct {
	// EnvelopeW is the maximum total system power (W) meeting the constraint.
	EnvelopeW float64
	// Scale is the applied factor on the varied chiplets at the envelope.
	Scale float64
	// PeakC is the peak temperature at the envelope.
	PeakC float64
	// Feasible is false when even (near-)zero varied power exceeds the
	// constraint (the fixed chiplets alone overheat).
	Feasible bool
}

// Envelope bisects the power scale of the varied chiplets until the peak
// temperature equals opt.CriticalC, and returns the corresponding total
// power. The model must match the system's interposer.
func Envelope(sys *chiplet.System, p chiplet.Placement, model *thermal.Model, opt Options) (*Result, error) {
	if err := sys.CheckPlacement(p); err != nil {
		return nil, fmt.Errorf("tdp: %w", err)
	}
	crit := opt.CriticalC
	if crit == 0 {
		crit = 85
	}
	vary := opt.VaryIndices
	if vary == nil {
		vary = make([]int, len(sys.Chiplets))
		for i := range vary {
			vary[i] = i
		}
	}
	var variedW float64
	for _, i := range vary {
		if i < 0 || i >= len(sys.Chiplets) {
			return nil, fmt.Errorf("tdp: vary index %d out of range", i)
		}
		variedW += sys.Chiplets[i].Power
	}
	if variedW <= 0 {
		return nil, fmt.Errorf("tdp: varied chiplets have zero nominal power; nothing to scale")
	}

	peakAt := func(scale float64) (float64, error) {
		scaled := sys.ScaledSubset(scale, vary)
		srcs := make([]thermal.Source, len(scaled.Chiplets))
		for i := range scaled.Chiplets {
			srcs[i] = thermal.Source{Rect: p.Rect(scaled, i), Power: scaled.Chiplets[i].Power}
		}
		res, err := model.Solve(srcs)
		if err != nil {
			return 0, err
		}
		return res.PeakC, nil
	}

	// Infeasible even with the varied chiplets nearly off?
	tLow, err := peakAt(1e-6)
	if err != nil {
		return nil, fmt.Errorf("tdp: %w", err)
	}
	if tLow > crit {
		return &Result{Feasible: false, PeakC: tLow, EnvelopeW: 0, Scale: 0}, nil
	}

	lo, hi := 1e-6, float64(maxScale)
	tHi, err := peakAt(hi)
	if err != nil {
		return nil, fmt.Errorf("tdp: %w", err)
	}
	if tHi <= crit {
		// Constraint never binds within the search bound.
		return &Result{
			Feasible:  true,
			Scale:     hi,
			PeakC:     tHi,
			EnvelopeW: sys.ScaledSubset(hi, vary).TotalPower(),
		}, nil
	}
	// Bisection on scale until the envelope power resolves within tolW.
	for sys.ScaledSubset(hi, vary).TotalPower()-sys.ScaledSubset(lo, vary).TotalPower() > tolW {
		mid := (lo + hi) / 2
		t, err := peakAt(mid)
		if err != nil {
			return nil, fmt.Errorf("tdp: %w", err)
		}
		if t <= crit {
			lo = mid
		} else {
			hi = mid
		}
	}
	tFinal, err := peakAt(lo)
	if err != nil {
		return nil, fmt.Errorf("tdp: %w", err)
	}
	return &Result{
		Feasible:  true,
		Scale:     lo,
		PeakC:     tFinal,
		EnvelopeW: sys.ScaledSubset(lo, vary).TotalPower(),
	}, nil
}
