package chiplet

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tap25d/internal/geom"
)

// twoChipSystem is a minimal valid system used across tests.
func twoChipSystem() *System {
	return &System{
		Name:        "two",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []Chiplet{
			{Name: "A", W: 10, H: 10, Power: 100},
			{Name: "B", W: 8, H: 4, Power: 10},
		},
		Channels: []Channel{{Src: 0, Dst: 1, Wires: 256}},
	}
}

func TestChipletDerived(t *testing.T) {
	c := Chiplet{W: 10, H: 5, Power: 25}
	if c.Area() != 50 {
		t.Errorf("Area = %v", c.Area())
	}
	if c.PowerDensity() != 0.5 {
		t.Errorf("PowerDensity = %v", c.PowerDensity())
	}
	if (Chiplet{}).PowerDensity() != 0 {
		t.Error("zero chiplet should have zero power density")
	}
}

func TestSystemAggregates(t *testing.T) {
	s := twoChipSystem()
	if s.TotalPower() != 110 {
		t.Errorf("TotalPower = %v", s.TotalPower())
	}
	if s.TotalWires() != 256 {
		t.Errorf("TotalWires = %v", s.TotalWires())
	}
	if s.Gap() != DefaultMinGap {
		t.Errorf("Gap = %v", s.Gap())
	}
	s.MinGap = 0.5
	if s.Gap() != 0.5 {
		t.Errorf("Gap override = %v", s.Gap())
	}
	ip := s.Interposer()
	if ip.W != 45 || ip.H != 45 || ip.MinX() != 0 || ip.MinY() != 0 {
		t.Errorf("Interposer = %v", ip)
	}
}

func TestValidateAcceptsGoodSystem(t *testing.T) {
	if err := twoChipSystem().Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*System)
	}{
		{"zero interposer", func(s *System) { s.InterposerW = 0 }},
		{"oversize interposer", func(s *System) { s.InterposerW = 51 }},
		{"no chiplets", func(s *System) { s.Chiplets = nil }},
		{"zero-width chiplet", func(s *System) { s.Chiplets[0].W = 0 }},
		{"negative power", func(s *System) { s.Chiplets[0].Power = -1 }},
		{"chiplet too big", func(s *System) { s.Chiplets[0].W, s.Chiplets[0].H = 46, 46; s.InterposerW, s.InterposerH = 45, 45 }},
		{"area overflow", func(s *System) {
			s.Chiplets = []Chiplet{{Name: "X", W: 45, H: 45}, {Name: "Y", W: 10, H: 10}}
		}},
		{"bad channel src", func(s *System) { s.Channels[0].Src = 9 }},
		{"self loop", func(s *System) { s.Channels[0].Dst = 0 }},
		{"zero wires", func(s *System) { s.Channels[0].Wires = 0 }},
		{"NaN interposer", func(s *System) { s.InterposerH = math.NaN() }},
		{"NaN chiplet height", func(s *System) { s.Chiplets[1].H = math.NaN() }},
		{"NaN power", func(s *System) { s.Chiplets[0].Power = math.NaN() }},
		{"infinite power", func(s *System) { s.Chiplets[1].Power = math.Inf(1) }},
		{"total power overflow", func(s *System) { s.Chiplets[0].Power, s.Chiplets[1].Power = 1e308, 1e308 }},
		{"total wires overflow", func(s *System) {
			s.Channels = append(s.Channels, Channel{Src: 1, Dst: 0, Wires: math.MaxInt})
		}},
	}
	for _, c := range cases {
		s := twoChipSystem()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestDecodeJSONRejectsOverflow: JSON cannot spell NaN or infinity, but
// finite values can still sum past the float64 and int ranges. Each such
// system is rejected with an error that names the field.
func TestDecodeJSONRejectsOverflow(t *testing.T) {
	for _, c := range []struct{ name, json, field string }{
		{"total power", `{"name":"x","interposer_w":20,"interposer_h":20,"chiplets":[{"name":"a","w":4,"h":4,"power":1e308},{"name":"b","w":4,"h":4,"power":1e308}],"channels":[{"src":0,"dst":1,"wires":10}]}`, "total power"},
		{"total wires", `{"name":"x","interposer_w":20,"interposer_h":20,"chiplets":[{"name":"a","w":4,"h":4,"power":1},{"name":"b","w":4,"h":4,"power":1}],"channels":[{"src":0,"dst":1,"wires":9223372036854775807},{"src":1,"dst":0,"wires":1}]}`, "total wires"},
		{"power out of range", `{"name":"x","interposer_w":20,"interposer_h":20,"chiplets":[{"name":"a","w":4,"h":4,"power":1e400}],"channels":[]}`, "power"},
	} {
		_, err := DecodeJSON(strings.NewReader(c.json))
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.field)
		}
	}
}

func TestScaled(t *testing.T) {
	s := twoChipSystem()
	s2 := s.Scaled(2)
	if s2.TotalPower() != 220 {
		t.Errorf("Scaled total = %v", s2.TotalPower())
	}
	if s.TotalPower() != 110 {
		t.Error("Scaled must not mutate the original")
	}
}

func TestScaledSubset(t *testing.T) {
	s := twoChipSystem()
	s2 := s.ScaledSubset(3, []int{0})
	if s2.Chiplets[0].Power != 300 || s2.Chiplets[1].Power != 10 {
		t.Errorf("ScaledSubset = %v, %v", s2.Chiplets[0].Power, s2.Chiplets[1].Power)
	}
	if s.Chiplets[0].Power != 100 {
		t.Error("ScaledSubset must not mutate the original")
	}
}

func TestPlacementRect(t *testing.T) {
	s := twoChipSystem()
	p := NewPlacement(2)
	p.Centers[0] = geom.Point{X: 10, Y: 10}
	p.Centers[1] = geom.Point{X: 30, Y: 30}
	r := p.Rect(s, 1)
	if r.W != 8 || r.H != 4 {
		t.Errorf("Rect = %v", r)
	}
	p.Rotated[1] = true
	r = p.Rect(s, 1)
	if r.W != 4 || r.H != 8 {
		t.Errorf("rotated Rect = %v", r)
	}
	if n := len(p.Rects(s)); n != 2 {
		t.Errorf("Rects len = %d", n)
	}
}

func TestPlacementClone(t *testing.T) {
	p := NewPlacement(2)
	p.Centers[0] = geom.Point{X: 1, Y: 2}
	q := p.Clone()
	q.Centers[0] = geom.Point{X: 9, Y: 9}
	q.Rotated[1] = true
	if p.Centers[0].X != 1 || p.Rotated[1] {
		t.Error("Clone should be independent")
	}
}

func TestCheckPlacement(t *testing.T) {
	s := twoChipSystem()
	p := NewPlacement(2)
	p.Centers[0] = geom.Point{X: 10, Y: 10}
	p.Centers[1] = geom.Point{X: 30, Y: 30}
	if err := s.CheckPlacement(p); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}

	// Off the interposer (Eqn. 11).
	p2 := p.Clone()
	p2.Centers[0] = geom.Point{X: 2, Y: 10} // left edge at -3
	err := s.CheckPlacement(p2)
	if err == nil {
		t.Fatal("off-interposer placement accepted")
	}
	var ve *ValidationError
	if !errorsAs(err, &ve) || ve.Other != -1 {
		t.Errorf("unexpected error: %v", err)
	}

	// Overlapping (Eqn. 10).
	p3 := p.Clone()
	p3.Centers[1] = geom.Point{X: 12, Y: 12}
	if err := s.CheckPlacement(p3); err == nil {
		t.Fatal("overlapping placement accepted")
	}

	// Gap violated but not overlapping: gap of 0.05 < 0.1.
	p4 := p.Clone()
	p4.Centers[1] = geom.Point{X: 10 + 5 + 4 + 0.05, Y: 10}
	if err := s.CheckPlacement(p4); err == nil {
		t.Fatal("sub-gap placement accepted")
	}
	// Exactly the gap: OK.
	p5 := p.Clone()
	p5.Centers[1] = geom.Point{X: 10 + 5 + 4 + 0.1, Y: 10}
	if err := s.CheckPlacement(p5); err != nil {
		t.Fatalf("exact-gap placement rejected: %v", err)
	}

	// Size mismatch.
	if err := s.CheckPlacement(NewPlacement(1)); err == nil {
		t.Fatal("size-mismatched placement accepted")
	}
}

func errorsAs(err error, target **ValidationError) bool {
	ve, ok := err.(*ValidationError)
	if ok {
		*target = ve
	}
	return ok
}

func TestValidationErrorMessages(t *testing.T) {
	e := &ValidationError{Chiplet: 2, Other: -1, Reason: "flies off"}
	if !strings.Contains(e.Error(), "chiplet 2") {
		t.Errorf("Error() = %q", e.Error())
	}
	e2 := &ValidationError{Chiplet: 1, Other: 3, Reason: "collide"}
	if !strings.Contains(e2.Error(), "1 and 3") {
		t.Errorf("Error() = %q", e2.Error())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := twoChipSystem()
	var buf bytes.Buffer
	if err := s.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Chiplets) != 2 || len(got.Channels) != 1 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if math.Abs(got.Chiplets[0].Power-100) > 1e-12 {
		t.Errorf("power lost in round trip")
	}
}

func TestDecodeJSONRejectsInvalid(t *testing.T) {
	if _, err := DecodeJSON(strings.NewReader(`{"name":"bad"}`)); err == nil {
		t.Error("invalid system decoded without error")
	}
	if _, err := DecodeJSON(strings.NewReader(`{not json`)); err == nil {
		t.Error("malformed JSON decoded without error")
	}
}

// FuzzDecodeSystem feeds arbitrary bytes to DecodeJSON, the system JSON
// decode boundary. It must never panic, and whatever it accepts must have a
// finite total power and a non-negative total wire count and must validate
// again after an encode/decode round trip. The seed corpus in
// testdata/fuzz/FuzzDecodeSystem holds the built-in systems (EncodeJSON) and
// testdata/edge_ai.json; every crasher found becomes a corpus entry there.
func FuzzDecodeSystem(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p := s.TotalPower(); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("accepted a system with total power %v", p)
		}
		if w := s.TotalWires(); w < 0 {
			t.Fatalf("accepted a system with total wires %d", w)
		}
		var buf bytes.Buffer
		if err := s.EncodeJSON(&buf); err != nil {
			t.Fatalf("encoding an accepted system: %v", err)
		}
		if _, err := DecodeJSON(&buf); err != nil {
			t.Fatalf("accepted system fails after a round trip: %v", err)
		}
	})
}
