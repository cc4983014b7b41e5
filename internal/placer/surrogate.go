package placer

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"tap25d/internal/chiplet"
	"tap25d/internal/metrics"
	"tap25d/internal/obs"
	"tap25d/internal/route"
	"tap25d/internal/surrogate"
	"tap25d/internal/thermal"
)

// prescreener is the two-fidelity hook the annealer probes for. When the
// run's evaluator implements it, each SA step first scores its candidate with
// the cheap surrogate; candidates the surrogate predicts as clearly rejected
// (Metropolis on predicted cost, padded by PrescreenMargin) are declined
// without paying the exact solve, and a deterministic fraction of those
// rejections is audited exactly via MaybeAudit to keep the surrogate honest.
type prescreener interface {
	// Prescreen returns the surrogate's predicted peak temperature for the
	// candidate — anchored as a delta against the current placement's
	// prediction, so the fit's local bias cancels out of the decision — plus
	// the candidate's exact wirelength. ready=false means the surrogate is
	// not fitted yet and the step must evaluate exactly.
	Prescreen(ctx context.Context, cur, nb chiplet.Placement, curTempC float64) (predTempC, wirelengthMM float64, ready bool, err error)
	// PrescreenPolicy returns the margin (slack added to the predicted
	// acceptance exponent in normalized-cost units, possibly widened after a
	// drift breach) and the sharpening factor: the prescreen Metropolis test
	// runs at temperature k/sharpen.
	PrescreenPolicy() (margin, sharpen float64)
	// MaybeAudit records one prescreen rejection and, on the audit cadence,
	// re-scores the rejected candidate exactly to measure drift.
	MaybeAudit(ctx context.Context, p chiplet.Placement, predTempC float64) error
}

// SurrogateStats summarizes the two-fidelity evaluation of a run: how often
// the analytical surrogate prescreened candidates, how many exact solves it
// saved, and how well its predictions tracked the exact solver.
type SurrogateStats struct {
	// Prescreens counts candidates scored by the surrogate; Rejects counts
	// the subset declined without an exact solve.
	Prescreens int64 `json:"prescreens"`
	Rejects    int64 `json:"rejects"`
	// Audits counts rejected candidates re-scored exactly; Refits counts
	// audits whose |error| breached the bound and triggered a refit.
	Audits int64 `json:"audits"`
	Refits int64 `json:"refits"`
	// DriftRMSC is the root-mean-square |predicted - exact| peak temperature
	// (°C) over all audits.
	DriftRMSC float64 `json:"drift_rms_c"`
	// HitRate is Rejects/Prescreens: the fraction of prescreened steps that
	// skipped the exact solver entirely.
	HitRate float64 `json:"hit_rate"`
}

// mergeSurrogateStats pools per-run statistics: counts add, the drift RMS
// combines audit-count-weighted, and the hit rate is recomputed from the
// pooled counts.
func mergeSurrogateStats(a, b *SurrogateStats) *SurrogateStats {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	m := &SurrogateStats{
		Prescreens: a.Prescreens + b.Prescreens,
		Rejects:    a.Rejects + b.Rejects,
		Audits:     a.Audits + b.Audits,
		Refits:     a.Refits + b.Refits,
	}
	if n := a.Audits + b.Audits; n > 0 {
		m.DriftRMSC = math.Sqrt((float64(a.Audits)*a.DriftRMSC*a.DriftRMSC +
			float64(b.Audits)*b.DriftRMSC*b.DriftRMSC) / float64(n))
	}
	if m.Prescreens > 0 {
		m.HitRate = float64(m.Rejects) / float64(m.Prescreens)
	}
	return m
}

// surrogateStatsProvider is implemented by evaluators that track two-fidelity
// statistics; finish() copies them into the Result and lifecycle events.
type surrogateStatsProvider interface {
	SurrogateStats() *SurrogateStats
}

// SurrogateEvaluator wraps a SystemEvaluator with the online-fitted
// analytical thermal surrogate (internal/surrogate), turning the annealer
// into a two-fidelity search: the annealer prescreens every candidate through
// Prescreen once the fit is seeded, and only surrogate-approved moves reach
// EvaluateContext's exact finite-difference solve. Every exact solve —
// initial placement, accepted-path evaluations, drift audits — feeds the
// fitter, so the surrogate tracks the region of the design space the anneal
// currently explores.
//
// The evaluator is deterministic and checkpointable: CheckpointState bundles
// the inner evaluator's warm-start field with the fitted surrogate state and
// the audit bookkeeping, so resumed runs replay bit-compatibly. Not safe for
// concurrent use; PlaceBestOf builds one per run.
type SurrogateEvaluator struct {
	inner *SystemEvaluator
	fit   *surrogate.Fitter
	cfg   surrogate.Config
	o     *obs.Observer
	ctr   *metrics.Counters

	// Wirelength cache: Prescreen routes the candidate exactly (routing is
	// cheap and its length feeds the predicted cost); if the same placement
	// then reaches the exact evaluation, the route is not repeated.
	lastKey string
	lastWL  float64
	haveWL  bool

	rejectsSinceAudit int
	widenLeft         int
	driftN            int64
	driftSumSq        float64
}

// NewSurrogateEvaluator wraps ev. cfg zero fields take the surrogate
// package's defaults; o may be nil (observability disabled).
func NewSurrogateEvaluator(ev *SystemEvaluator, cfg surrogate.Config, o *obs.Observer) *SurrogateEvaluator {
	return &SurrogateEvaluator{
		inner: ev,
		fit:   surrogate.NewFitter(cfg),
		cfg:   cfg.WithDefaults(),
		o:     o,
		ctr:   ev.counters(),
	}
}

func (s *SurrogateEvaluator) counters() *metrics.Counters { return s.ctr }

// Metrics returns the counters shared with the inner evaluator.
func (s *SurrogateEvaluator) Metrics() metrics.Counters { return *s.ctr }

// Thermal exposes the inner evaluator's thermal model.
func (s *SurrogateEvaluator) Thermal() *thermal.Model { return s.inner.Thermal() }

// Fitter exposes the online fit (for tests and diagnostics).
func (s *SurrogateEvaluator) Fitter() *surrogate.Fitter { return s.fit }

// Evaluate implements Evaluator.
func (s *SurrogateEvaluator) Evaluate(p chiplet.Placement) (float64, float64, error) {
	return s.EvaluateContext(context.Background(), p)
}

// EvaluateContext performs the exact evaluation (identical arithmetic to the
// inner SystemEvaluator) and feeds the result to the fitter. The router is
// skipped when Prescreen already routed this exact placement.
func (s *SurrogateEvaluator) EvaluateContext(ctx context.Context, p chiplet.Placement) (float64, float64, error) {
	s.ctr.Evaluations++
	res, err := s.inner.model.SolveContext(ctx, Sources(s.inner.sys, p))
	if err != nil {
		return 0, 0, err
	}
	var wl float64
	if key := placementKey(p); s.haveWL && key == s.lastKey {
		wl = s.lastWL
	} else {
		s.ctr.RouteCalls++
		r, err := route.RouteContext(ctx, s.inner.sys, p, s.inner.ropts)
		if err != nil {
			return 0, 0, err
		}
		wl = r.TotalWirelengthMM
	}
	s.fit.Observe(s.inner.sys, p, res.PeakC)
	return res.PeakC, wl, nil
}

// Prescreen implements prescreener: two microsecond-scale surrogate
// predictions (candidate and current placement, so the candidate's
// temperature is estimated as curTempC plus the predicted delta and the fit's
// local bias cancels) plus the exact (cheap) routing of the candidate.
func (s *SurrogateEvaluator) Prescreen(ctx context.Context, cur, nb chiplet.Placement, curTempC float64) (float64, float64, bool, error) {
	if !s.fit.Ready() {
		return 0, 0, false, nil
	}
	s.ctr.SurrogatePrescreens++
	if s.widenLeft > 0 {
		s.widenLeft--
	}
	sp := s.o.StartSpan(obs.PhaseSurrogateEval, "")
	predT := curTempC + s.fit.Predict(s.inner.sys, nb) - s.fit.Predict(s.inner.sys, cur)
	sp.End()
	s.ctr.RouteCalls++
	r, err := route.RouteContext(ctx, s.inner.sys, nb, s.inner.ropts)
	if err != nil {
		return 0, 0, false, err
	}
	s.lastKey, s.lastWL, s.haveWL = placementKey(nb), r.TotalWirelengthMM, true
	return predT, r.TotalWirelengthMM, true, nil
}

// PrescreenPolicy implements prescreener: the configured margin (widened for
// WidenSteps prescreens after a drift-audit breach) and sharpening factor.
func (s *SurrogateEvaluator) PrescreenPolicy() (float64, float64) {
	m := s.cfg.Margin
	if s.widenLeft > 0 {
		m *= s.cfg.WidenFactor
	}
	return m, s.cfg.Sharpen
}

// MaybeAudit implements prescreener: every AuditEvery-th prescreen rejection
// is re-scored with the exact solver; the error feeds the drift statistics
// and the fitter, and a breach of AuditBoundC forces a spread refit plus a
// temporarily widened margin.
func (s *SurrogateEvaluator) MaybeAudit(ctx context.Context, p chiplet.Placement, predTempC float64) error {
	s.ctr.SurrogateRejects++
	s.rejectsSinceAudit++
	if s.rejectsSinceAudit < s.cfg.AuditEvery {
		return nil
	}
	s.rejectsSinceAudit = 0
	s.ctr.SurrogateAudits++
	res, err := s.inner.model.SolveContext(ctx, Sources(s.inner.sys, p))
	if err != nil {
		return err
	}
	s.fit.Observe(s.inner.sys, p, res.PeakC)
	e := predTempC - res.PeakC
	s.driftN++
	s.driftSumSq += e * e
	if math.Abs(e) > s.cfg.AuditBoundC {
		s.ctr.SurrogateRefits++
		s.fit.Refit(s.inner.sys)
		s.widenLeft = s.cfg.WidenSteps
	}
	return nil
}

// SurrogateStats implements surrogateStatsProvider.
func (s *SurrogateEvaluator) SurrogateStats() *SurrogateStats {
	st := &SurrogateStats{
		Prescreens: s.ctr.SurrogatePrescreens,
		Rejects:    s.ctr.SurrogateRejects,
		Audits:     s.ctr.SurrogateAudits,
		Refits:     s.ctr.SurrogateRefits,
	}
	if s.driftN > 0 {
		st.DriftRMSC = math.Sqrt(s.driftSumSq / float64(s.driftN))
	}
	if st.Prescreens > 0 {
		st.HitRate = float64(st.Rejects) / float64(st.Prescreens)
	}
	return st
}

// surrogateEvalState is the serialized form of a SurrogateEvaluator: the
// inner evaluator's state plus the fitted surrogate and audit bookkeeping.
type surrogateEvalState struct {
	Inner             []byte
	Fit               surrogate.State
	RejectsSinceAudit int
	WidenLeft         int
	DriftN            int64
	DriftSumSq        float64
}

// CheckpointState implements StateCheckpointer. The prescreen wirelength
// cache is deliberately not captured: routing is stateless and deterministic,
// so a resumed run that re-routes produces identical lengths.
func (s *SurrogateEvaluator) CheckpointState() ([]byte, error) {
	innerState, err := s.inner.CheckpointState()
	if err != nil {
		return nil, err
	}
	st := surrogateEvalState{
		Inner:             innerState,
		Fit:               s.fit.State(),
		RejectsSinceAudit: s.rejectsSinceAudit,
		WidenLeft:         s.widenLeft,
		DriftN:            s.driftN,
		DriftSumSq:        s.driftSumSq,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("placer: encoding surrogate state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements StateCheckpointer.
func (s *SurrogateEvaluator) RestoreState(state []byte) error {
	var st surrogateEvalState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&st); err != nil {
		return fmt.Errorf("placer: decoding surrogate state: %w", err)
	}
	if err := s.inner.RestoreState(st.Inner); err != nil {
		return err
	}
	if err := s.fit.Restore(s.inner.sys, st.Fit); err != nil {
		return err
	}
	s.rejectsSinceAudit = st.RejectsSinceAudit
	s.widenLeft = st.WidenLeft
	s.driftN = st.DriftN
	s.driftSumSq = st.DriftSumSq
	s.lastKey, s.lastWL, s.haveWL = "", 0, false
	return nil
}

// placementKey serializes a placement into an exact byte-for-byte key: the
// IEEE-754 bits of every center coordinate followed by the rotation flags.
// Two placements share a key iff they are bit-identical.
func placementKey(p chiplet.Placement) string {
	buf := make([]byte, 0, len(p.Centers)*16+len(p.Rotated))
	var b [8]byte
	for _, c := range p.Centers {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.X))
		buf = append(buf, b[:]...)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Y))
		buf = append(buf, b[:]...)
	}
	for _, r := range p.Rotated {
		if r {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return string(buf)
}
