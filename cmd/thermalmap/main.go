// Command thermalmap renders the thermal field of a placement: ASCII to
// stdout and optionally a PPM image, for a built-in case study (using its
// reference placement) or a JSON system + placement pair. With -transient it
// also traces the power-on step response and reports the time to the
// critical temperature.
//
// Usage:
//
//	thermalmap -system ascend910
//	thermalmap -json sys.json -placement p.json -ppm out.ppm
//	thermalmap -system cpudram -transient -dt 0.01 -horizon 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"tap25d"
	"tap25d/internal/buildinfo"
	"tap25d/internal/surrogate"
)

func main() {
	var (
		systemName = flag.String("system", "", "built-in system (multigpu, cpudram, ascend910)")
		jsonPath   = flag.String("json", "", "JSON system description")
		placement  = flag.String("placement", "", "JSON placement (required with -json)")
		grid       = flag.Int("grid", 64, "thermal grid resolution")
		cols       = flag.Int("cols", 72, "ASCII map width")
		ppmPath    = flag.String("ppm", "", "write a PPM image")
		transient  = flag.Bool("transient", false, "also trace the power-on step response")
		dt         = flag.Float64("dt", 0.02, "transient time step in seconds")
		horizon    = flag.Float64("horizon", 10, "transient horizon in seconds")
		debugAddr  = flag.String("debug-addr", "", "serve live metrics/pprof on this address (e.g. localhost:6060)")
		obsReport  = flag.String("obs-report", "", "write the observability report as JSON to this file")
		noRecover  = flag.Bool("no-recover", false, "disable the thermal solver's CG recovery ladder (non-convergence fails immediately)")
		compareSur = flag.Int("compare-surrogate", 0, "fit the analytical thermal surrogate from N random perturbations of the placement and report its predicted-vs-exact error (0: off)")
		seed       = flag.Int64("seed", 1, "random seed for -compare-surrogate perturbations")
		version    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("thermalmap", buildinfo.Version())
		return
	}

	sys, p, err := load(*systemName, *jsonPath, *placement)
	if err != nil {
		fatal(err)
	}
	opt := tap25d.Options{ThermalGrid: *grid, DisableRecovery: *noRecover}
	var observer *tap25d.Observer
	if *debugAddr != "" || *obsReport != "" {
		observer = tap25d.NewObserver()
		opt.Observer = observer
	}
	if *debugAddr != "" {
		srv, err := tap25d.ServeDebug(*debugAddr, observer)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "thermalmap: debug server on http://%s\n", srv.Addr())
	}
	res, err := tap25d.Evaluate(sys, p, opt)
	if err != nil {
		fatal(err)
	}
	if rec := res.Thermal.Recovery; rec != nil {
		fmt.Fprintf(os.Stderr,
			"thermalmap: CG solve recovered (cold restarts %d, multigrid fallback %v, degraded %v)\n",
			rec.ColdRestarts, rec.PrecondFallback, rec.Degraded)
	}
	fmt.Printf("%s: peak %.2f C, wirelength %.0f mm, feasible(<=%d C): %v\n\n",
		sys.Name, res.PeakC, res.WirelengthMM, tap25d.CriticalC, res.Feasible)
	fmt.Println(tap25d.ThermalASCII(sys, res, *cols))

	if *ppmPath != "" {
		f, err := os.Create(*ppmPath)
		if err != nil {
			fatal(err)
		}
		if err := tap25d.WriteThermalPPM(f, res, 8); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *ppmPath)
	}

	if *transient {
		steps := int(*horizon / *dt)
		if steps < 1 {
			steps = 1
		}
		tr, err := tap25d.Transient(sys, p, *dt, steps, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\npower-on step response (dt=%.3gs, %d steps):\n", *dt, steps)
		stride := len(tr.TimesS) / 10
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(tr.TimesS); i += stride {
			fmt.Printf("  t=%7.3fs  peak=%7.2f C\n", tr.TimesS[i], tr.PeakC[i])
		}
		fmt.Printf("  steady state: %.2f C\n", tr.SteadyPeakC)
		if tt, ok := tr.TimeToThresholdS(float64(tap25d.CriticalC)); ok {
			fmt.Printf("  crosses %d C after %.3f s\n", tap25d.CriticalC, tt)
		} else {
			fmt.Printf("  never crosses %d C within the horizon\n", tap25d.CriticalC)
		}
	}

	if *compareSur > 0 {
		if err := compareSurrogate(sys, p, *compareSur, *seed, opt); err != nil {
			fatal(err)
		}
	}

	if observer != nil {
		rep := observer.Report()
		rep.WriteTable(os.Stderr)
		if *obsReport != "" {
			if err := rep.WriteFile(*obsReport); err != nil {
				fatal(err)
			}
			fmt.Println("observability report written to", *obsReport)
		}
	}
}

// compareSurrogate fits the closed-form analytical thermal model from n
// random perturbations of the placement (each paying an exact finite-
// difference solve) and scores it on a fresh holdout set of the same size —
// the offline view of the accuracy the two-fidelity annealer gets online.
func compareSurrogate(sys *tap25d.System, p tap25d.Placement, n int, seed int64, opt tap25d.Options) error {
	fit := surrogate.NewFitter(surrogate.Config{Window: n})
	rng := rand.New(rand.NewSource(seed))
	// Rejection-sample: a jitter may push two dies inside the minimum gap
	// (Eqn. 10), which Evaluate rejects; keep drawing until legal.
	perturb := func() (tap25d.Placement, error) {
		for attempt := 0; attempt < 10000; attempt++ {
			q := p.Clone()
			i := rng.Intn(len(q.Centers))
			w, h := sys.Chiplets[i].W, sys.Chiplets[i].H
			if q.Rotated[i] {
				w, h = h, w
			}
			q.Centers[i].X += (rng.Float64()*2 - 1) * 2
			q.Centers[i].Y += (rng.Float64()*2 - 1) * 2
			q.Centers[i].X = math.Max(w/2, math.Min(sys.InterposerW-w/2, q.Centers[i].X))
			q.Centers[i].Y = math.Max(h/2, math.Min(sys.InterposerH-h/2, q.Centers[i].Y))
			if sys.CheckPlacement(q) == nil {
				return q, nil
			}
		}
		return tap25d.Placement{}, fmt.Errorf("no legal perturbation of the placement found in 10000 draws")
	}
	exact := func(q tap25d.Placement) (float64, error) {
		res, err := tap25d.Evaluate(sys, q, opt)
		if err != nil {
			return 0, err
		}
		return res.PeakC, nil
	}
	for i := 0; i < n; i++ {
		q, err := perturb()
		if err != nil {
			return err
		}
		t, err := exact(q)
		if err != nil {
			return err
		}
		fit.Observe(sys, q, t)
	}
	fit.Refit(sys)
	var sumSq, maxAbs float64
	for i := 0; i < n; i++ {
		q, err := perturb()
		if err != nil {
			return err
		}
		t, err := exact(q)
		if err != nil {
			return err
		}
		e := fit.Predict(sys, q) - t
		sumSq += e * e
		maxAbs = math.Max(maxAbs, math.Abs(e))
	}
	fmt.Printf("\nsurrogate vs exact over %d holdout perturbations (fit on %d): RMS %.3f C, max %.3f C\n",
		n, n, math.Sqrt(sumSq/float64(n)), maxAbs)
	return nil
}

func load(name, jsonPath, placementPath string) (*tap25d.System, tap25d.Placement, error) {
	var zero tap25d.Placement
	switch {
	case name != "":
		sys, err := tap25d.BuiltinSystem(name)
		if err != nil {
			return nil, zero, err
		}
		var p tap25d.Placement
		switch name {
		case "cpudram":
			p = tap25d.CPUDRAMOriginalPlacement()
		case "ascend910":
			p = tap25d.Ascend910OriginalPlacement()
		default:
			// No reference placement: run the compact baseline.
			res, err := tap25d.PlaceCompact(sys, tap25d.Options{ThermalGrid: 32, Seed: 1})
			if err != nil {
				return nil, zero, err
			}
			p = res.Placement
		}
		if placementPath != "" {
			if err := readJSON(placementPath, &p); err != nil {
				return nil, zero, err
			}
		}
		return sys, p, nil
	case jsonPath != "":
		f, err := os.Open(jsonPath)
		if err != nil {
			return nil, zero, err
		}
		defer f.Close()
		sys, err := tap25d.LoadSystem(f)
		if err != nil {
			return nil, zero, err
		}
		var p tap25d.Placement
		if err := readJSON(placementPath, &p); err != nil {
			return nil, zero, fmt.Errorf("-placement is required with -json: %w", err)
		}
		return sys, p, nil
	}
	return nil, zero, fmt.Errorf("specify -system (%v) or -json", tap25d.BuiltinSystemNames())
}

func readJSON(path string, v any) error {
	if path == "" {
		return fmt.Errorf("no file given")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thermalmap:", err)
	os.Exit(1)
}
