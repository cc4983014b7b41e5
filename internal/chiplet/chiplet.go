// Package chiplet defines the input description of a heterogeneous 2.5D
// system: the chiplets (dimensions and power), the logical inter-chiplet
// network (channels with required wire counts, the R_ij of Table I), the
// interposer, and chiplet placements with the paper's validity rules
// (Eqns. 10 and 11).
package chiplet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"tap25d/internal/geom"
)

// DefaultMinGap is w_gap, the minimum spacing between two chiplets (0.1 mm,
// per the assembly rules the paper cites).
const DefaultMinGap = 0.1

// MaxInterposerEdge is the manufacturing limit on interposer edge length
// (w_int <= 50 mm, Table I).
const MaxInterposerEdge = 50.0

// Chiplet is a die placed on the interposer.
type Chiplet struct {
	// Name identifies the chiplet in reports ("GPU0", "HBM2", ...).
	Name string `json:"name"`
	// W and H are the die width and height in mm.
	W float64 `json:"w"`
	H float64 `json:"h"`
	// Power is the die's power dissipation in watts, injected uniformly over
	// its footprint.
	Power float64 `json:"power"`
}

// Area returns the die footprint in mm².
func (c Chiplet) Area() float64 { return c.W * c.H }

// PowerDensity returns W/mm².
func (c Chiplet) PowerDensity() float64 {
	if c.Area() == 0 {
		return 0
	}
	return c.Power / c.Area()
}

// Channel is a logical inter-chiplet link: the paper's net n with source s_n,
// sink t_n and wire-count requirement R_{s_n t_n}.
type Channel struct {
	// Src and Dst index into System.Chiplets.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Wires is the number of wires that must be routed between the two
	// chiplets (bandwidth requirement).
	Wires int `json:"wires"`
}

// System describes a heterogeneous 2.5D system to be placed and routed.
type System struct {
	Name string `json:"name"`
	// InterposerW and InterposerH are the interposer dimensions in mm.
	// The paper uses square 45 mm interposers (50 mm in the size sweep).
	InterposerW float64 `json:"interposer_w"`
	InterposerH float64 `json:"interposer_h"`
	// MinGap is the minimum chiplet-to-chiplet spacing in mm; zero means
	// DefaultMinGap.
	MinGap   float64   `json:"min_gap,omitempty"`
	Chiplets []Chiplet `json:"chiplets"`
	Channels []Channel `json:"channels"`
	// PinsPerClumpLimit is P_il^max, the microbump capacity per pin clump.
	// Zero means "derived": enough capacity for all wires that could
	// terminate at the chiplet, spread over its clumps.
	PinsPerClumpLimit int `json:"pins_per_clump_limit,omitempty"`
}

// Gap returns the effective minimum chiplet spacing.
func (s *System) Gap() float64 {
	if s.MinGap > 0 {
		return s.MinGap
	}
	return DefaultMinGap
}

// Interposer returns the interposer outline with lower-left corner at (0, 0).
func (s *System) Interposer() geom.Rect {
	return geom.RectFromBounds(0, 0, s.InterposerW, s.InterposerH)
}

// TotalPower sums all chiplet powers (W).
func (s *System) TotalPower() float64 {
	var p float64
	for _, c := range s.Chiplets {
		p += c.Power
	}
	return p
}

// TotalWires sums the wire requirements over all channels.
func (s *System) TotalWires() int {
	var w int
	for _, ch := range s.Channels {
		w += ch.Wires
	}
	return w
}

// Validate checks the static description (not a placement). Every number
// must be finite, and so must the total power and the total wire count.
func (s *System) Validate() error {
	if !(s.InterposerW > 0) || !(s.InterposerH > 0) {
		return fmt.Errorf("chiplet: system %q: non-positive interposer dimensions", s.Name)
	}
	if s.InterposerW > MaxInterposerEdge+1e-9 || s.InterposerH > MaxInterposerEdge+1e-9 {
		return fmt.Errorf("chiplet: system %q: interposer edge exceeds %g mm manufacturing limit", s.Name, MaxInterposerEdge)
	}
	if len(s.Chiplets) == 0 {
		return fmt.Errorf("chiplet: system %q: no chiplets", s.Name)
	}
	var area float64
	for i, c := range s.Chiplets {
		if !(c.W > 0) || !(c.H > 0) {
			return fmt.Errorf("chiplet: system %q: chiplet %d (%s) has non-positive dimensions", s.Name, i, c.Name)
		}
		if !(c.Power >= 0) || math.IsInf(c.Power, 1) {
			return fmt.Errorf("chiplet: system %q: chiplet %d (%s) power %v is not a finite non-negative number", s.Name, i, c.Name, c.Power)
		}
		if c.W > s.InterposerW && c.H > s.InterposerW || c.W > s.InterposerH && c.H > s.InterposerH {
			return fmt.Errorf("chiplet: system %q: chiplet %d (%s) larger than interposer in both orientations", s.Name, i, c.Name)
		}
		area += c.Area()
	}
	if area > s.InterposerW*s.InterposerH {
		return fmt.Errorf("chiplet: system %q: total chiplet area %.1f mm² exceeds interposer area %.1f mm²",
			s.Name, area, s.InterposerW*s.InterposerH)
	}
	if p := s.TotalPower(); math.IsInf(p, 1) {
		return fmt.Errorf("chiplet: system %q: total power overflows (chiplet power values sum to %v)", s.Name, p)
	}
	wires := 0
	for i, ch := range s.Channels {
		if ch.Src < 0 || ch.Src >= len(s.Chiplets) || ch.Dst < 0 || ch.Dst >= len(s.Chiplets) {
			return fmt.Errorf("chiplet: system %q: channel %d references unknown chiplet", s.Name, i)
		}
		if ch.Src == ch.Dst {
			return fmt.Errorf("chiplet: system %q: channel %d is a self-loop", s.Name, i)
		}
		if ch.Wires <= 0 {
			return fmt.Errorf("chiplet: system %q: channel %d has non-positive wire count", s.Name, i)
		}
		if ch.Wires > math.MaxInt-wires {
			return fmt.Errorf("chiplet: system %q: total wires overflow at channel %d", s.Name, i)
		}
		wires += ch.Wires
	}
	return nil
}

// Scaled returns a copy of the system with every chiplet's power multiplied by
// factor. Used by the TDP envelope search.
func (s *System) Scaled(factor float64) *System {
	out := *s
	out.Chiplets = make([]Chiplet, len(s.Chiplets))
	copy(out.Chiplets, s.Chiplets)
	for i := range out.Chiplets {
		out.Chiplets[i].Power *= factor
	}
	return &out
}

// ScaledSubset multiplies the power of the chiplets whose indices appear in
// idx by factor, leaving the rest untouched. The paper's TDP analysis for the
// CPU-DRAM system varies only the CPUs' power.
func (s *System) ScaledSubset(factor float64, idx []int) *System {
	out := *s
	out.Chiplets = make([]Chiplet, len(s.Chiplets))
	copy(out.Chiplets, s.Chiplets)
	for _, i := range idx {
		out.Chiplets[i].Power *= factor
	}
	return &out
}

// Placement assigns each chiplet a center location and orientation.
// Centers[i] is (X_i, Y_i); Rotated[i] swaps the chiplet's width and height
// (the paper's 90-degree rotate operation).
type Placement struct {
	Centers []geom.Point `json:"centers"`
	Rotated []bool       `json:"rotated"`
}

// NewPlacement returns a zero-initialized placement for n chiplets.
func NewPlacement(n int) Placement {
	return Placement{Centers: make([]geom.Point, n), Rotated: make([]bool, n)}
}

// Clone returns a deep copy.
func (p Placement) Clone() Placement {
	q := NewPlacement(len(p.Centers))
	copy(q.Centers, p.Centers)
	copy(q.Rotated, p.Rotated)
	return q
}

// Rect returns chiplet i's outline under placement p.
func (p Placement) Rect(s *System, i int) geom.Rect {
	c := s.Chiplets[i]
	w, h := c.W, c.H
	if p.Rotated[i] {
		w, h = h, w
	}
	return geom.Rect{Center: p.Centers[i], W: w, H: h}
}

// Rects returns all chiplet outlines.
func (p Placement) Rects(s *System) []geom.Rect {
	rs := make([]geom.Rect, len(s.Chiplets))
	for i := range rs {
		rs[i] = p.Rect(s, i)
	}
	return rs
}

// ValidationError explains why a placement is invalid.
type ValidationError struct {
	Chiplet int
	Other   int // -1 when the violation is against the interposer boundary
	Reason  string
}

func (e *ValidationError) Error() string {
	if e.Other < 0 {
		return fmt.Sprintf("chiplet: placement: chiplet %d %s", e.Chiplet, e.Reason)
	}
	return fmt.Sprintf("chiplet: placement: chiplets %d and %d %s", e.Chiplet, e.Other, e.Reason)
}

// CheckPlacement verifies the paper's validity conditions: every chiplet fully
// on the interposer (Eqn. 11) and pairwise gaps of at least w_gap (Eqn. 10).
// It returns nil for a valid placement.
func (s *System) CheckPlacement(p Placement) error {
	if len(p.Centers) != len(s.Chiplets) || len(p.Rotated) != len(s.Chiplets) {
		return fmt.Errorf("chiplet: placement size %d does not match system with %d chiplets",
			len(p.Centers), len(s.Chiplets))
	}
	ip := s.Interposer()
	rects := p.Rects(s)
	for i, r := range rects {
		if !ip.ContainsRect(r) {
			return &ValidationError{Chiplet: i, Other: -1, Reason: "extends beyond interposer (Eqn. 11)"}
		}
	}
	gap := s.Gap()
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			if !rects[i].SeparatedBy(rects[j], gap) {
				return &ValidationError{Chiplet: i, Other: j,
					Reason: fmt.Sprintf("violate %g mm minimum gap (Eqn. 10)", gap)}
			}
		}
	}
	return nil
}

// EncodeJSON writes the system as indented JSON.
func (s *System) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeJSON reads a system from JSON and validates it.
func DecodeJSON(r io.Reader) (*System, error) {
	var s System
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("chiplet: decoding system: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
