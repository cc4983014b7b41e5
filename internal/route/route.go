// Package route implements the inter-chiplet network routing optimization of
// TAP-2.5D (Section III-B of the paper). Given a chiplet placement and the
// logical channels (nets) with their wire-count requirements, it finds a
// delivery of wires between pin clumps minimizing total Manhattan wirelength,
// subject to per-clump microbump capacity (Eqn. 7), flow conservation
// (Eqns. 4-6), and bandwidth limits (Eqn. 8, or Eqn. 9 for 2-stage
// gas-station links that may pass through one intermediate chiplet).
//
// Two methods are provided:
//
//   - MethodMILP formulates Eqns. (1)-(9) exactly as a mixed-integer linear
//     program and solves it with the internal simplex + branch-and-bound
//     solver (the repo's substitute for the paper's CPLEX v12.8). Variables
//     that Eqns. (5), (6) and (8) force to zero — flows on arcs not touching
//     the net's source and sink — are omitted from the formulation, which is
//     an exact reduction, not an approximation.
//
//   - MethodFast routes nets sequentially (largest first) with successive
//     cheapest-path augmentation over the shared clump capacities. It is the
//     default inside the simulated-annealing loop, where the paper spends
//     5 s per CPLEX call and we need microseconds.
package route

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
	"tap25d/internal/lp"
	"tap25d/internal/obs"
)

// ClumpsPerChiplet is |P| per chiplet: the paper groups the microbumps along
// the chiplet periphery into 4 pin clumps, one per edge.
const ClumpsPerChiplet = 4

// Edge indices for the four pin clumps.
const (
	EdgeEast = iota
	EdgeNorth
	EdgeWest
	EdgeSouth
)

// ClumpPoint returns the position of pin clump l of chiplet c under placement
// p: the midpoint of the corresponding edge of the (possibly rotated) die.
func ClumpPoint(sys *chiplet.System, p chiplet.Placement, c, l int) geom.Point {
	r := p.Rect(sys, c)
	switch l {
	case EdgeEast:
		return geom.Point{X: r.MaxX(), Y: r.Center.Y}
	case EdgeNorth:
		return geom.Point{X: r.Center.X, Y: r.MaxY()}
	case EdgeWest:
		return geom.Point{X: r.MinX(), Y: r.Center.Y}
	case EdgeSouth:
		return geom.Point{X: r.Center.X, Y: r.MinY()}
	}
	panic(fmt.Sprintf("route: clump index %d out of range", l))
}

// Method selects the routing algorithm.
type Method int

// Routing methods.
const (
	// MethodFast is the sequential cheapest-augmentation router.
	MethodFast Method = iota
	// MethodMILP is the exact Eqn. (1)-(9) formulation.
	MethodMILP
)

func (m Method) String() string {
	switch m {
	case MethodFast:
		return "fast"
	case MethodMILP:
		return "milp"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures routing.
type Options struct {
	// GasStation enables 2-stage pipelined links through one intermediate
	// chiplet (Eqn. 9). Off means repeaterless non-pipelined links (Eqn. 8).
	GasStation bool
	// Method selects the algorithm (default MethodFast).
	Method Method
	// MILP bounds the branch-and-bound search when Method == MethodMILP.
	MILP lp.MILPOptions
	// Obs, when non-nil, records each routing call as a route_solve span
	// labeled with the method name. Timing-only: results are unaffected.
	Obs *obs.Observer
}

// Flow is a number of wires of one net routed over a single clump-to-clump
// arc. A gas-station wire appears as two flows: source→intermediate and
// intermediate→sink; flow conservation at the intermediate ties them.
type Flow struct {
	Net         int // index into System.Channels
	FromChiplet int
	FromClump   int
	ToChiplet   int
	ToClump     int
	Wires       int
	// LengthPerWire is the Manhattan arc length d_iljk in mm (Eqn. 2).
	LengthPerWire float64
}

// Result is a routing solution.
type Result struct {
	// TotalWirelengthMM is the paper's reported metric: the sum of all
	// inter-chiplet link lengths (Eqn. 1 objective value).
	TotalWirelengthMM float64
	Flows             []Flow
	Method            Method
	GasStation        bool
}

// DerivedPinCapacity estimates P_il^max per chiplet when the system does not
// specify one: half the chiplet's total incident wire requirement per clump
// (so a channel generally spreads over at most two facing clumps), matching
// how the paper sizes "estimated microbump resources".
func DerivedPinCapacity(sys *chiplet.System) []int {
	caps := make([]int, len(sys.Chiplets))
	for _, ch := range sys.Channels {
		caps[ch.Src] += ch.Wires
		caps[ch.Dst] += ch.Wires
	}
	for i, tot := range caps {
		caps[i] = (tot + 1) / 2
	}
	if sys.PinsPerClumpLimit > 0 {
		for i := range caps {
			caps[i] = sys.PinsPerClumpLimit
		}
	}
	return caps
}

// Route computes a routing solution for placement p.
func Route(sys *chiplet.System, p chiplet.Placement, opt Options) (*Result, error) {
	return RouteContext(context.Background(), sys, p, opt)
}

// RouteContext is Route with an observability context: when opt.Obs is set,
// the call is recorded as a route_solve span nested under the span attached
// to ctx (an SA step, typically). Routing itself never blocks on ctx.
func RouteContext(ctx context.Context, sys *chiplet.System, p chiplet.Placement, opt Options) (*Result, error) {
	sp := opt.Obs.StartSpanCtx(ctx, obs.PhaseRouteSolve, opt.Method.String())
	res, err := routeDispatch(sys, p, opt)
	sp.End()
	return res, err
}

func routeDispatch(sys *chiplet.System, p chiplet.Placement, opt Options) (*Result, error) {
	if err := sys.CheckPlacement(p); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	caps := DerivedPinCapacity(sys)
	// Clump positions and distance lookup.
	pts := clumpPoints(sys, p)
	switch opt.Method {
	case MethodFast:
		return routeFast(sys, pts, caps, opt)
	case MethodMILP:
		return routeMILP(sys, pts, caps, opt)
	}
	return nil, fmt.Errorf("route: unknown method %v", opt.Method)
}

func clumpPoints(sys *chiplet.System, p chiplet.Placement) [][ClumpsPerChiplet]geom.Point {
	pts := make([][ClumpsPerChiplet]geom.Point, len(sys.Chiplets))
	for c := range sys.Chiplets {
		for l := 0; l < ClumpsPerChiplet; l++ {
			pts[c][l] = ClumpPoint(sys, p, c, l)
		}
	}
	return pts
}

func dist(pts [][ClumpsPerChiplet]geom.Point, i, l, j, k int) float64 {
	return pts[i][l].Manhattan(pts[j][k])
}

// clumpID flattens (chiplet, clump).
func clumpID(c, l int) int { return c*ClumpsPerChiplet + l }

// --- Fast router -----------------------------------------------------------

// pathCand is a candidate route for one wire of a net: either a direct arc or
// a 2-hop gas-station route via an intermediate chiplet.
type pathCand struct {
	cost float64
	// direct: l -> k on (s, t)
	l, k int
	// via >= 0 means 2-hop through chiplet via: s.l -> via.kin, via.lout -> t.k
	via, kin, lout int
}

func routeFast(sys *chiplet.System, pts [][ClumpsPerChiplet]geom.Point, caps []int, opt Options) (*Result, error) {
	rem := make([]int, len(sys.Chiplets)*ClumpsPerChiplet)
	for c, cap := range caps {
		for l := 0; l < ClumpsPerChiplet; l++ {
			rem[clumpID(c, l)] = cap
		}
	}
	// Gas-station budget per chiplet: pins beyond the chiplet's own incident
	// demand. Reserving the incident demand guarantees the greedy order can
	// always finish every net directly (a via-exhausted chiplet could
	// otherwise strand its own channels behind Eqn. 7).
	viaBudget := make([]int, len(sys.Chiplets))
	if opt.GasStation {
		incident := make([]int, len(sys.Chiplets))
		for _, ch := range sys.Channels {
			incident[ch.Src] += ch.Wires
			incident[ch.Dst] += ch.Wires
		}
		for c, cap := range caps {
			viaBudget[c] = ClumpsPerChiplet*cap - incident[c]
			if viaBudget[c] < 0 {
				viaBudget[c] = 0
			}
		}
	}

	order := make([]int, len(sys.Channels))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sys.Channels[order[a]].Wires > sys.Channels[order[b]].Wires
	})

	res := &Result{Method: MethodFast, GasStation: opt.GasStation}
	// Aggregate flows per (net, arc) so repeated augmentations merge.
	type arcKey struct{ net, fc, fl, tc, tl int }
	agg := map[arcKey]int{}

	// The candidate buffer is reused across nets: with gas stations enabled it
	// holds O(chiplets · ClumpsPerChiplet⁴) entries, and the annealer calls
	// routeFast once per accepted-or-rejected move, so regrowing it from nil
	// for every net dominated the router's allocation profile. ord carries the
	// cost order as compact (cost, index) pairs so the sort swaps 16 bytes per
	// element instead of the whole 48-byte pathCand.
	var cands []pathCand
	type candOrd struct {
		cost float64
		idx  int32
	}
	var ord []candOrd
	for _, n := range order {
		ch := sys.Channels[n]
		s, t := ch.Src, ch.Dst
		demand := ch.Wires

		// Enumerate candidate paths once; availability is rechecked each
		// augmentation.
		cands = cands[:0]
		for l := 0; l < ClumpsPerChiplet; l++ {
			for k := 0; k < ClumpsPerChiplet; k++ {
				cands = append(cands, pathCand{cost: dist(pts, s, l, t, k), l: l, k: k, via: -1})
			}
		}
		if opt.GasStation {
			for via := range sys.Chiplets {
				if via == s || via == t {
					continue
				}
				// The exit-leg length depends only on (via, lout, t, k), so
				// hoist it out of the (l, kin) loops: 16 dist calls per via
				// instead of 256, with identical costs in identical order.
				var exitLeg [ClumpsPerChiplet * ClumpsPerChiplet]float64
				for lout := 0; lout < ClumpsPerChiplet; lout++ {
					for k := 0; k < ClumpsPerChiplet; k++ {
						exitLeg[lout*ClumpsPerChiplet+k] = dist(pts, via, lout, t, k)
					}
				}
				for l := 0; l < ClumpsPerChiplet; l++ {
					for kin := 0; kin < ClumpsPerChiplet; kin++ {
						d1 := dist(pts, s, l, via, kin)
						for lout := 0; lout < ClumpsPerChiplet; lout++ {
							for k := 0; k < ClumpsPerChiplet; k++ {
								cands = append(cands, pathCand{
									cost: d1 + exitLeg[lout*ClumpsPerChiplet+k],
									l:    l, k: k, via: via, kin: kin, lout: lout,
								})
							}
						}
					}
				}
			}
		}
		// Sorting (cost, index) pairs with slices.SortFunc yields the exact
		// candidate order sort.Slice on the structs did: pdqsort's permutation
		// is a function of the element count and comparator outcomes alone,
		// and both see the identical cost sequence (equal-cost ties included).
		ord = ord[:0]
		for i := range cands {
			ord = append(ord, candOrd{cost: cands[i].cost, idx: int32(i)})
		}
		slices.SortFunc(ord, func(a, b candOrd) int {
			switch {
			case a.cost < b.cost:
				return -1
			case b.cost < a.cost:
				return 1
			}
			return 0
		})

		for demand > 0 {
			routed := false
			for _, o := range ord {
				c := cands[o.idx]
				bw := availability(rem, s, t, c)
				if c.via >= 0 {
					if vb := viaBudget[c.via] / 2; vb < bw {
						bw = vb
					}
				}
				if bw <= 0 {
					continue
				}
				amt := demand
				if bw < amt {
					amt = bw
				}
				consume(rem, s, t, c, amt)
				if c.via >= 0 {
					viaBudget[c.via] -= 2 * amt
				}
				if c.via < 0 {
					agg[arcKey{n, s, c.l, t, c.k}] += amt
				} else {
					agg[arcKey{n, s, c.l, c.via, c.kin}] += amt
					agg[arcKey{n, c.via, c.lout, t, c.k}] += amt
				}
				demand -= amt
				routed = true
				break
			}
			if !routed {
				return nil, infeasibleFast(sys, n, s, t, demand, caps)
			}
		}
	}

	// Emit flows deterministically.
	keys := make([]struct {
		arcKey
	}, 0, len(agg))
	for k := range agg {
		keys = append(keys, struct{ arcKey }{k})
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a].arcKey, keys[b].arcKey
		if ka.net != kb.net {
			return ka.net < kb.net
		}
		if ka.fc != kb.fc {
			return ka.fc < kb.fc
		}
		if ka.fl != kb.fl {
			return ka.fl < kb.fl
		}
		if ka.tc != kb.tc {
			return ka.tc < kb.tc
		}
		return ka.tl < kb.tl
	})
	for _, kk := range keys {
		k := kk.arcKey
		d := dist(pts, k.fc, k.fl, k.tc, k.tl)
		w := agg[k]
		res.Flows = append(res.Flows, Flow{
			Net: k.net, FromChiplet: k.fc, FromClump: k.fl,
			ToChiplet: k.tc, ToClump: k.tl, Wires: w, LengthPerWire: d,
		})
		res.TotalWirelengthMM += float64(w) * d
	}
	return res, nil
}

// availability returns how many wires can use candidate c given remaining
// clump capacities.
func availability(rem []int, s, t int, c pathCand) int {
	bw := rem[clumpID(s, c.l)]
	if r := rem[clumpID(t, c.k)]; r < bw {
		bw = r
	}
	if c.via >= 0 {
		if c.kin == c.lout {
			// One wire consumes two pins of the same clump.
			if r := rem[clumpID(c.via, c.kin)] / 2; r < bw {
				bw = r
			}
		} else {
			if r := rem[clumpID(c.via, c.kin)]; r < bw {
				bw = r
			}
			if r := rem[clumpID(c.via, c.lout)]; r < bw {
				bw = r
			}
		}
	}
	return bw
}

func consume(rem []int, s, t int, c pathCand, amt int) {
	rem[clumpID(s, c.l)] -= amt
	rem[clumpID(t, c.k)] -= amt
	if c.via >= 0 {
		rem[clumpID(c.via, c.kin)] -= amt
		rem[clumpID(c.via, c.lout)] -= amt
	}
}

// --- MILP router ------------------------------------------------------------

// arc is a directed clump-to-clump edge available to a given net.
type arc struct {
	fc, fl, tc, tl int
	d              float64
}

func routeMILP(sys *chiplet.System, pts [][ClumpsPerChiplet]geom.Point, caps []int, opt Options) (*Result, error) {
	nets := sys.Channels
	// Build the variable space: arcs per net.
	var arcs []arc                      // global arc list
	netArcs := make([][]int, len(nets)) // variable indices per net
	type varInfo struct{ net, arcIdx int }
	var vars []varInfo

	addArc := func(n, fc, fl, tc, tl int) {
		a := arc{fc: fc, fl: fl, tc: tc, tl: tl, d: dist(pts, fc, fl, tc, tl)}
		arcs = append(arcs, a)
		vars = append(vars, varInfo{net: n, arcIdx: len(arcs) - 1})
		netArcs[n] = append(netArcs[n], len(vars)-1)
	}

	for n, ch := range nets {
		s, t := ch.Src, ch.Dst
		for l := 0; l < ClumpsPerChiplet; l++ {
			for k := 0; k < ClumpsPerChiplet; k++ {
				addArc(n, s, l, t, k)
			}
		}
		if opt.GasStation {
			for via := range sys.Chiplets {
				if via == s || via == t {
					continue
				}
				for l := 0; l < ClumpsPerChiplet; l++ {
					for k := 0; k < ClumpsPerChiplet; k++ {
						addArc(n, s, l, via, k) // s -> via
						addArc(n, via, l, t, k) // via -> t
					}
				}
			}
		}
	}

	nv := len(vars)
	prob := &lp.Problem{Sense: lp.Minimize, C: make([]float64, nv), Integer: make([]bool, nv)}
	for v, vi := range vars {
		prob.C[v] = arcs[vi.arcIdx].d
		prob.Integer[v] = true
	}

	addRow := func(row []float64, rel lp.Rel, rhs float64) {
		prob.A = append(prob.A, row)
		prob.Rel = append(prob.Rel, rel)
		prob.B = append(prob.B, rhs)
	}

	// Eqn. (4) at the source: total outflow from s equals R (no inflow to s
	// exists in the variable space, per Eqn. 5).
	for n, ch := range nets {
		row := make([]float64, nv)
		for _, v := range netArcs[n] {
			if arcs[vars[v].arcIdx].fc == ch.Src {
				row[v] = 1
			}
		}
		addRow(row, lp.EQ, float64(ch.Wires))
	}

	// Eqn. (4) at intermediates: inflow == outflow per (net, via).
	if opt.GasStation {
		for n, ch := range nets {
			for via := range sys.Chiplets {
				if via == ch.Src || via == ch.Dst {
					continue
				}
				row := make([]float64, nv)
				any := false
				for _, v := range netArcs[n] {
					a := arcs[vars[v].arcIdx]
					if a.tc == via {
						row[v] = 1
						any = true
					}
					if a.fc == via {
						row[v] = -1
						any = true
					}
				}
				if any {
					addRow(row, lp.EQ, 0)
				}
			}
		}
		// Eqn. (9): sum of all flows <= 2R - direct flows, i.e.
		// 2*direct + indirect <= 2R.
		for n, ch := range nets {
			row := make([]float64, nv)
			for _, v := range netArcs[n] {
				a := arcs[vars[v].arcIdx]
				if a.fc == ch.Src && a.tc == ch.Dst {
					row[v] = 2
				} else {
					row[v] = 1
				}
			}
			addRow(row, lp.LE, 2*float64(ch.Wires))
		}
	}
	// Eqn. (8) for repeaterless links (sum of flows <= R) is implied by the
	// source-delivery equality once only direct arcs exist, so no row is
	// needed.

	// Eqn. (7): per-clump pin capacity over incident flows of all nets.
	for c := range sys.Chiplets {
		for l := 0; l < ClumpsPerChiplet; l++ {
			row := make([]float64, nv)
			any := false
			for v, vi := range vars {
				a := arcs[vi.arcIdx]
				if a.fc == c && a.fl == l {
					row[v]++
					any = true
				}
				if a.tc == c && a.tl == l {
					row[v]++
					any = true
				}
			}
			if any {
				addRow(row, lp.LE, float64(caps[c]))
			}
		}
	}

	sol, err := lp.SolveMILP(prob, opt.MILP)
	if err != nil {
		return nil, fmt.Errorf("route: milp: %w", err)
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, infeasibleMILP(sys, caps)
	default:
		return nil, fmt.Errorf("route: milp terminated with status %v", sol.Status)
	}

	res := &Result{Method: MethodMILP, GasStation: opt.GasStation}
	for v, vi := range vars {
		w := int(math.Round(sol.X[v]))
		if w <= 0 {
			continue
		}
		a := arcs[vi.arcIdx]
		res.Flows = append(res.Flows, Flow{
			Net: vi.net, FromChiplet: a.fc, FromClump: a.fl,
			ToChiplet: a.tc, ToClump: a.tl, Wires: w, LengthPerWire: a.d,
		})
		res.TotalWirelengthMM += float64(w) * a.d
	}
	return res, nil
}

// --- Verification ------------------------------------------------------------

// Check verifies that a routing result satisfies the paper's constraints for
// the given system and options: per-net delivery (Eqn. 4), conservation at
// intermediates, source/sink direction rules (Eqns. 5-6), pin capacities
// (Eqn. 7), and hop-count limits (Eqns. 8-9). Used by tests and the E8
// benchmark to validate both routing methods.
func Check(sys *chiplet.System, res *Result, caps []int) error {
	if caps == nil {
		caps = DerivedPinCapacity(sys)
	}
	pinUse := make([]int, len(sys.Chiplets)*ClumpsPerChiplet)
	type nodeKey struct{ net, chip int }
	inflow := map[nodeKey]int{}
	outflow := map[nodeKey]int{}

	for _, f := range res.Flows {
		if f.Wires <= 0 {
			return fmt.Errorf("route: flow with non-positive wires: %+v", f)
		}
		if f.Net < 0 || f.Net >= len(sys.Channels) {
			return fmt.Errorf("route: flow references unknown net %d", f.Net)
		}
		ch := sys.Channels[f.Net]
		if f.FromChiplet == ch.Dst {
			return fmt.Errorf("route: net %d has outflow from its sink (violates Eqn. 6)", f.Net)
		}
		if f.ToChiplet == ch.Src {
			return fmt.Errorf("route: net %d has inflow to its source (violates Eqn. 5)", f.Net)
		}
		if !res.GasStation && (f.FromChiplet != ch.Src || f.ToChiplet != ch.Dst) {
			return fmt.Errorf("route: net %d uses an intermediate chiplet without gas-station links (violates Eqn. 8)", f.Net)
		}
		if f.FromChiplet != ch.Src && f.FromChiplet != ch.Dst && f.ToChiplet != ch.Src && f.ToChiplet != ch.Dst {
			return fmt.Errorf("route: net %d flow between two intermediates (violates Eqn. 9's 2-stage limit)", f.Net)
		}
		pinUse[clumpID(f.FromChiplet, f.FromClump)] += f.Wires
		pinUse[clumpID(f.ToChiplet, f.ToClump)] += f.Wires
		outflow[nodeKey{f.Net, f.FromChiplet}] += f.Wires
		inflow[nodeKey{f.Net, f.ToChiplet}] += f.Wires
	}

	for n, ch := range sys.Channels {
		if got := outflow[nodeKey{n, ch.Src}]; got != ch.Wires {
			return fmt.Errorf("route: net %d delivers %d wires from source, want %d", n, got, ch.Wires)
		}
		if got := inflow[nodeKey{n, ch.Dst}]; got != ch.Wires {
			return fmt.Errorf("route: net %d delivers %d wires to sink, want %d", n, got, ch.Wires)
		}
		for c := range sys.Chiplets {
			if c == ch.Src || c == ch.Dst {
				continue
			}
			if inflow[nodeKey{n, c}] != outflow[nodeKey{n, c}] {
				return fmt.Errorf("route: net %d violates conservation at chiplet %d: in %d out %d",
					n, c, inflow[nodeKey{n, c}], outflow[nodeKey{n, c}])
			}
		}
	}
	for c := range sys.Chiplets {
		for l := 0; l < ClumpsPerChiplet; l++ {
			if pinUse[clumpID(c, l)] > caps[c] {
				return fmt.Errorf("route: clump (%d, %d) uses %d pins, capacity %d (violates Eqn. 7)",
					c, l, pinUse[clumpID(c, l)], caps[c])
			}
		}
	}
	return nil
}
