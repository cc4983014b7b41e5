// Package material defines the thermal material library and the 2.5D layer
// stack of Fig. 1 in the paper: organic substrate, C4 bump layer, silicon
// interposer, microbump layer, chiplet layer, and thermal interface material
// (TIM), with a copper heat spreader and air-forced heatsink above.
//
// Conductivities are in W/(m·K); thicknesses in meters. Values follow the
// HotSpot defaults and the passive-interposer assembly data the paper cites
// (Chaware et al. ECTC'12, Charbonnier et al. ESTC'12).
package material

// Material holds the properties needed by the steady-state thermal solver.
// Volumetric heat capacity is retained for completeness (transient analysis)
// although the placer only needs steady-state temperatures.
type Material struct {
	Name string
	// Conductivity is the thermal conductivity in W/(m·K).
	Conductivity float64
	// VolumetricHeatCapacity is in J/(m³·K).
	VolumetricHeatCapacity float64
}

// The material library. Composite bump layers mix metal and underfill epoxy:
// a C4/microbump layer is mostly epoxy resin with a sparse array of solder
// bumps and copper pillars, so its effective vertical conductivity sits
// between epoxy (~0.9) and solder (~50).
var (
	Silicon = Material{Name: "silicon", Conductivity: 150, VolumetricHeatCapacity: 1.75e6}
	Copper  = Material{Name: "copper", Conductivity: 400, VolumetricHeatCapacity: 3.55e6}
	// Epoxy underfill between and around chiplets and bumps.
	Underfill = Material{Name: "underfill", Conductivity: 0.9, VolumetricHeatCapacity: 2.0e6}
	// Organic package substrate (build-up laminate).
	Organic = Material{Name: "organic", Conductivity: 1.0, VolumetricHeatCapacity: 1.6e6}
	// TIM between die backside and spreader (high-performance thermal
	// grease, as used with server-class forced-air coolers).
	TIM = Material{Name: "tim", Conductivity: 5.0, VolumetricHeatCapacity: 4.0e6}
	// C4 bump layer: solder bumps in epoxy (effective composite).
	C4Layer = Material{Name: "c4", Conductivity: 3.0, VolumetricHeatCapacity: 2.2e6}
	// Microbump layer: finer-pitch bumps in epoxy; slightly better than C4
	// because of denser copper pillars.
	MicrobumpLayer = Material{Name: "ubump", Conductivity: 5.0, VolumetricHeatCapacity: 2.2e6}
)

// Layer is one modeling layer of the stack.
type Layer struct {
	Name string
	// Thickness in meters.
	Thickness float64
	// Base is the material filling the layer by default. The chiplet layer
	// uses Underfill as base and Silicon wherever a die is placed.
	Base Material
	// Heterogeneous marks the layer whose per-cell material depends on the
	// chiplet placement (the chiplet layer in this model).
	Heterogeneous bool
	// PowerLayer marks the layer into which chiplet power is injected
	// (the active silicon of the chiplet layer).
	PowerLayer bool
}

// Stack is an ordered bottom-to-top list of layers plus the package-level
// boundary parameters.
type Stack struct {
	Layers []Layer
	// SpreaderThickness and SinkThickness are the copper spreader / heatsink
	// base plate thicknesses in meters.
	SpreaderThickness float64
	SinkThickness     float64
	// SpreaderEdgeFactor and SinkEdgeFactor size the spreader and sink
	// relative to the interposer edge (paper: 2x and 4x respectively,
	// following HotSpot defaults).
	SpreaderEdgeFactor float64
	SinkEdgeFactor     float64
	// ConvectionResistance is the total sink-to-ambient convective resistance
	// in K/W for the air-forced heatsink. The paper adjusts this per system
	// to keep the heat transfer coefficient consistent.
	ConvectionResistance float64
	// SinkFinFactor multiplies the sink's lateral conductance to account for
	// the fin mass spreading heat across the base plate (HotSpot's lumped
	// sink is nearly isothermal; a bare 10 mm plate is not). Default 1.
	SinkFinFactor float64
	// BoardConductance is the weak secondary heat path through the package
	// bottom, total W/K over the whole substrate footprint.
	BoardConductance float64
	// AmbientC is the ambient temperature in Celsius (paper: 45 C).
	AmbientC float64
}

// DefaultStack returns the 6-layer 2.5D stack used by all case studies, as in
// Fig. 1 of the paper. Thicknesses are from the cited 65 nm passive-interposer
// assemblies: 100 um thinned dies, 100 um interposer, ~70 um C4 bumps, ~25 um
// microbumps, a 1 mm organic substrate and 50 um TIM bondline.
func DefaultStack() Stack {
	return Stack{
		Layers: []Layer{
			{Name: "substrate", Thickness: 1.0e-3, Base: Organic},
			{Name: "c4", Thickness: 70e-6, Base: C4Layer},
			{Name: "interposer", Thickness: 100e-6, Base: Silicon},
			{Name: "ubump", Thickness: 25e-6, Base: MicrobumpLayer},
			{Name: "chiplet", Thickness: 150e-6, Base: Underfill, Heterogeneous: true, PowerLayer: true},
			{Name: "tim", Thickness: 50e-6, Base: TIM},
		},
		SpreaderThickness:    2.0e-3,
		SinkThickness:        10.0e-3,
		SpreaderEdgeFactor:   2,
		SinkEdgeFactor:       4,
		ConvectionResistance: 0.031,
		SinkFinFactor:        1,
		BoardConductance:     2.0,
		AmbientC:             AmbientC,
	}
}

// AmbientC is the paper's ambient temperature in Celsius (45 C): the stack's
// boundary temperature and the ambient constant of the placer's Eqn. (13).
const AmbientC = 45.0

// ConvectionHTC is the forced-air heat transfer coefficient (W/(m²·K))
// assumed for the heatsink. The paper keeps this coefficient consistent
// across all simulations by adjusting the heatsink's convective resistance to
// the sink area; DefaultStackFor does the same.
const ConvectionHTC = 1000.0

// DefaultStackFor returns DefaultStack with the convective resistance
// adjusted to the interposer dimensions (mm) so that the heat transfer
// coefficient stays ConvectionHTC regardless of sink area — the paper's
// "to keep the heat transfer coefficient consistent across all simulations,
// we adjust the convective resistance of the heatsink".
func DefaultStackFor(widthMM, heightMM float64) Stack {
	s := DefaultStack()
	sinkArea := (widthMM * 1e-3 * s.SinkEdgeFactor) * (heightMM * 1e-3 * s.SinkEdgeFactor)
	s.ConvectionResistance = 1 / (ConvectionHTC * sinkArea)
	return s
}

// ChipletLayerIndex returns the index of the heterogeneous power layer, or -1
// if the stack has none.
func (s Stack) ChipletLayerIndex() int {
	for i, l := range s.Layers {
		if l.PowerLayer {
			return i
		}
	}
	return -1
}

// Validate reports obvious configuration errors.
func (s Stack) Validate() error {
	if len(s.Layers) == 0 {
		return errEmptyStack
	}
	for _, l := range s.Layers {
		if l.Thickness <= 0 {
			return &LayerError{Layer: l.Name, Reason: "non-positive thickness"}
		}
		if l.Base.Conductivity <= 0 {
			return &LayerError{Layer: l.Name, Reason: "non-positive conductivity"}
		}
	}
	if s.ConvectionResistance <= 0 {
		return &LayerError{Layer: "sink", Reason: "non-positive convection resistance"}
	}
	if s.SpreaderEdgeFactor < 1 || s.SinkEdgeFactor < s.SpreaderEdgeFactor {
		return &LayerError{Layer: "spreader/sink", Reason: "edge factors must satisfy 1 <= spreader <= sink"}
	}
	return nil
}

// LayerError describes an invalid layer configuration.
type LayerError struct {
	Layer  string
	Reason string
}

func (e *LayerError) Error() string { return "material: layer " + e.Layer + ": " + e.Reason }

var errEmptyStack = &LayerError{Layer: "(stack)", Reason: "no layers"}
