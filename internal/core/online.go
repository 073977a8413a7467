package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/acis-lab/larpredictor/internal/nws"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/predictors"
	"github.com/acis-lab/larpredictor/internal/timeseries"
	"github.com/acis-lab/larpredictor/internal/tournament"
)

// ErrNotReady is returned by Online.Forecast before enough samples have been
// observed to train the underlying LARPredictor.
var ErrNotReady = errors.New("core: online predictor not yet trained (insufficient history)")

// ErrFailed is returned by Online.Forecast once the predictor has exhausted
// its failure budget (FailureLimit consecutive failed retrains). A Failed
// predictor is terminal: a supervisor should replace it with a fresh one.
var ErrFailed = errors.New("core: online predictor failed (retrain failure budget exhausted)")

// Health is the online predictor's degradation state. The state machine is
//
//	Healthy → Tournament → Fallback → Failed
//
// with recovery transitions back toward Healthy whenever a (re)train
// succeeds and survives the breaker's half-open confirmation window.
//
// The numeric values are persisted by SaveState, exported on the
// larpredictor_health_state gauge and hashed into the tournament context,
// so they are fixed. Value 2 belonged to a retired rung and stays unused.
type Health int

const (
	// Healthy serves forecasts from the trained LARPredictor.
	Healthy Health = 0
	// Tournament serves forecasts from the branch-predictor-style tournament
	// meta-selector over the nonparametric pool (saturating per-expert
	// confidence counters indexed by a context hash of the recent regime)
	// while retrains are retried under backoff, or while the circuit
	// breaker is open. It needs no training.
	Tournament Health = 1
	// Fallback serves the last finite observation (the LAST expert): even
	// the selectors are unusable, typically because the trailing window
	// holds non-finite samples.
	Fallback Health = 3
	// Failed is terminal: FailureLimit consecutive retrains failed. Observe
	// still records history but no further retrains are attempted and
	// Forecast returns ErrFailed.
	Failed Health = 4
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "Healthy"
	case Tournament:
		return "Tournament"
	case Fallback:
		return "Fallback"
	case Failed:
		return "Failed"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// OnlineConfig parameterizes the streaming predictor with QA-driven
// retraining (the Prediction Quality Assuror of paper Figure 1: "When the
// average MSE of the audit window exceeds a predefined threshold, it directs
// the LARPredictor to re-train the predictors and the classifier using
// recent performance data").
type OnlineConfig struct {
	// Predictor is the LARPredictor configuration.
	Predictor Config
	// TrainSize is the number of most-recent samples used for (re)training.
	TrainSize int
	// AuditWindow is the number of recent forecasts the QA averages. The
	// audit MSE is computed in normalized space.
	AuditWindow int
	// MSEThreshold triggers retraining when the audit-window MSE exceeds
	// it. A non-positive threshold disables QA retraining.
	MSEThreshold float64
	// MinRetrainSpacing is the minimum number of observations between
	// retrains, preventing thrash when a trace shifts regime abruptly.
	// Defaults to AuditWindow when zero.
	MinRetrainSpacing int
	// MaxHistory bounds the retained history buffer (0 = 4×TrainSize).
	MaxHistory int

	// RetrainBackoff is the initial retry delay, in observations, armed
	// when a (re)train fails. Each further consecutive failure multiplies
	// the delay by BackoffFactor up to MaxBackoff. Defaults to
	// MinRetrainSpacing.
	RetrainBackoff int
	// BackoffFactor is the exponential backoff multiplier (default 2; must
	// be >= 1 when set).
	BackoffFactor float64
	// MaxBackoff caps the retry delay in observations (0 = 8×RetrainBackoff).
	MaxBackoff int
	// BreakerThreshold opens the circuit breaker after this many
	// consecutive retrain failures (default 5). While open, retrains are
	// attempted only as probes every ProbeSpacing observations.
	BreakerThreshold int
	// ProbeSpacing is the number of observations between probe retrains
	// while the breaker is open (0 = MaxBackoff).
	ProbeSpacing int
	// HalfOpenWindow is the number of observations a successful probe must
	// survive without a fresh QA breach before the breaker closes
	// (0 = 2×max(MinRetrainSpacing, AuditWindow)).
	HalfOpenWindow int
	// ThrashLimit trips the breaker after this many consecutive QA retrains
	// fired at (close to) the minimum possible spacing — retraining that
	// frequently is not helping, so the breaker stops the storm. Default 4;
	// negative disables thrash detection.
	ThrashLimit int
	// FailureLimit moves the predictor to the terminal Failed state after
	// this many consecutive retrain failures (0 = 3×BreakerThreshold;
	// negative disables, keeping the predictor degraded forever).
	FailureLimit int
	// FallbackWindow is the sliding window, in observations, of the
	// cumulative-MSE selector the tournament rides on (0 = AuditWindow).
	FallbackWindow int

	// Tournament configures the tournament meta-selector that serves the
	// Tournament rung: the context-indexed choice of nonparametric expert.
	// nil, like zero fields, takes the tournament package defaults; the
	// Experts field is overridden to the fallback-pool size.
	Tournament *tournament.Config
	// Drift, when non-nil, enables proactive drift demotion: a windowed
	// error-ratio CUSUM over the active LAR model's squared forecast error
	// (normalized space, the same stream the QA audits) that demotes a
	// stale-but-not-yet-failing model to the tournament tier before the
	// absolute QA threshold would fire. nil disables it.
	Drift *tournament.DriftConfig
}

func (c *OnlineConfig) validate() error {
	if err := c.Predictor.validate(); err != nil {
		return err
	}
	if c.TrainSize < c.Predictor.WindowSize+2 {
		return fmt.Errorf("core: train size %d < window+2 (%d): %w",
			c.TrainSize, c.Predictor.WindowSize+2, ErrBadConfig)
	}
	if c.AuditWindow < 1 {
		return fmt.Errorf("core: audit window %d < 1: %w", c.AuditWindow, ErrBadConfig)
	}
	if c.BackoffFactor != 0 && c.BackoffFactor < 1 {
		return fmt.Errorf("core: backoff factor %g < 1: %w", c.BackoffFactor, ErrBadConfig)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"retrain backoff", c.RetrainBackoff},
		{"max backoff", c.MaxBackoff},
		{"breaker threshold", c.BreakerThreshold},
		{"probe spacing", c.ProbeSpacing},
		{"half-open window", c.HalfOpenWindow},
		{"fallback window", c.FallbackWindow},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: %s %d < 0: %w", f.name, f.v, ErrBadConfig)
		}
	}
	return nil
}

// Online wraps a LARPredictor in a streaming interface: feed observations
// one at a time with Observe, read one-step-ahead forecasts with Forecast.
// It trains itself once TrainSize samples have arrived and retrains when the
// QA audit fires.
//
// Online is fault tolerant: a failed (re)train no longer surfaces as an
// Observe error. Instead the predictor degrades down an explicit ladder —
// trained LARPredictor, then the tournament meta-selector over a
// nonparametric pool (LAST, SW_AVG, SW_MEDIAN), then the last finite
// observation — while retrains are retried under exponential backoff and a
// circuit breaker. Health reports the current rung. Not safe for concurrent
// use.
type Online struct {
	cfg OnlineConfig
	lar *LARPredictor

	// Observability hooks; both nil (and free) unless attached via
	// WithMetrics/WithTracer.
	met    *onlineMetrics
	tracer obs.Tracer

	history []float64
	// audit ring of recent squared errors (normalized space)
	auditSq   []float64
	auditNext int
	auditLen  int

	// pending holds the last LAR forecast, compared against the next
	// observation. Lower-rung forecasts never arm pending: the QA audits the
	// LARPredictor, not the safety net.
	pending    float64
	hasPending bool

	sinceRetrain int
	retrains     int

	// Lower-rung machinery.
	health Health
	// selector is the windowed cumulative-MSE fold over fbPool: it runs
	// every expert on every window, feeding the tournament and the
	// uncertainty estimates, and serves when the tournament's choice
	// cannot forecast.
	selector   *nws.Selector
	fbPool     *predictors.Pool
	tour       *tournament.Selector
	drift      *tournament.DriftDetector
	lastFinite float64
	hasFinite  bool

	// Backoff and circuit breaker (all delays in observation counts, since
	// time is simulated upstream).
	breakerOpen    bool
	halfOpen       bool
	halfOpenLeft   int
	backoff        int // next armed delay
	backoffLeft    int // observations until the next attempt is allowed
	consecFailures int
	thrashRun      int
	thrashSpacing  int
	lastErr        error

	retrainFailures     int
	breakerTrips        int
	selectorForecasts   int
	fallbackForecasts   int
	tournamentForecasts int
	driftDemotions      int
}

// NewOnline validates the configuration and returns an empty streaming
// predictor. Options attach pools, vote strategies, metrics, and tracing
// to both the wrapper and the inner LARPredictor; see Option.
func NewOnline(cfg OnlineConfig, opts ...Option) (*Online, error) {
	set := applyOptions(opts)
	set.apply(&cfg.Predictor)
	set.applyOnline(&cfg)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MinRetrainSpacing == 0 {
		cfg.MinRetrainSpacing = cfg.AuditWindow
	}
	if cfg.MaxHistory == 0 {
		cfg.MaxHistory = 4 * cfg.TrainSize
	}
	if cfg.MaxHistory < cfg.TrainSize {
		return nil, fmt.Errorf("core: max history %d < train size %d: %w",
			cfg.MaxHistory, cfg.TrainSize, ErrBadConfig)
	}
	if cfg.RetrainBackoff == 0 {
		cfg.RetrainBackoff = cfg.MinRetrainSpacing
	}
	if cfg.BackoffFactor == 0 {
		cfg.BackoffFactor = 2
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 8 * cfg.RetrainBackoff
	}
	if cfg.MaxBackoff < cfg.RetrainBackoff {
		return nil, fmt.Errorf("core: max backoff %d < retrain backoff %d: %w",
			cfg.MaxBackoff, cfg.RetrainBackoff, ErrBadConfig)
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.ProbeSpacing == 0 {
		cfg.ProbeSpacing = cfg.MaxBackoff
	}
	minFire := cfg.MinRetrainSpacing
	if cfg.AuditWindow > minFire {
		minFire = cfg.AuditWindow
	}
	if cfg.HalfOpenWindow == 0 {
		cfg.HalfOpenWindow = 2 * minFire
	}
	if cfg.ThrashLimit == 0 {
		cfg.ThrashLimit = 4
	}
	if cfg.FailureLimit == 0 {
		cfg.FailureLimit = 3 * cfg.BreakerThreshold
	}
	if cfg.FallbackWindow == 0 {
		cfg.FallbackWindow = cfg.AuditWindow
	}
	lar, err := New(cfg.Predictor, opts...)
	if err != nil {
		return nil, err
	}
	m := cfg.Predictor.WindowSize
	fbPool := predictors.NewPool(
		predictors.NewLast(),
		predictors.NewSWAvg(m),
		predictors.NewSWMedian(m),
	)
	selector, err := nws.NewWindowedMSE(fbPool, cfg.FallbackWindow)
	if err != nil {
		return nil, fmt.Errorf("core: fallback selector: %w", err)
	}
	selector.Instrument(set.metrics)
	var tcfg tournament.Config
	if cfg.Tournament != nil {
		tcfg = *cfg.Tournament
	}
	tcfg.Experts = fbPool.Size()
	tour, err := tournament.New(tcfg)
	if err != nil {
		return nil, fmt.Errorf("core: tournament selector: %w", err)
	}
	tour.Instrument(set.metrics, fbPool.Names())
	// Store the defaulted copy so snapshots compare against the effective
	// configuration, mirroring the other config fields.
	resolved := tour.Config()
	cfg.Tournament = &resolved
	var drift *tournament.DriftDetector
	if cfg.Drift != nil {
		drift, err = tournament.NewDetector(*cfg.Drift)
		if err != nil {
			return nil, fmt.Errorf("core: drift detector: %w", err)
		}
		resolved := drift.Config()
		cfg.Drift = &resolved
	}
	return &Online{
		cfg:      cfg,
		lar:      lar,
		met:      newOnlineMetrics(set.metrics),
		tracer:   set.tracer,
		auditSq:  make([]float64, cfg.AuditWindow),
		health:   Healthy,
		selector: selector,
		fbPool:   fbPool,
		tour:     tour,
		drift:    drift,
		backoff:  cfg.RetrainBackoff,
		// A retrain can fire no earlier than max(MinRetrainSpacing,
		// AuditWindow) observations after the last one (the audit ring must
		// refill). Firing within half an audit window of that floor counts
		// as thrash.
		thrashSpacing: minFire + cfg.AuditWindow/2,
	}, nil
}

// setHealth moves the health state machine to h, recording the transition
// in the attached metrics. All live-path health changes go through it;
// RestoreState sets the field directly (a restore is not a transition) and
// resyncs the gauges afterwards.
func (o *Online) setHealth(h Health) {
	if h == o.health {
		return
	}
	o.met.recordHealth(o.health, h)
	o.health = h
}

// Retrains returns how many times QA has retrained the model (the initial
// training does not count).
func (o *Online) Retrains() int { return o.retrains }

// Trained reports whether the underlying model is trained.
func (o *Online) Trained() bool { return o.lar.Trained() }

// HistoryLen returns the number of retained observations.
func (o *Online) HistoryLen() int { return len(o.history) }

// Health returns the predictor's current degradation state.
func (o *Online) Health() Health { return o.health }

// LastError returns the error of the most recent failed (re)train, or nil
// if the last attempt succeeded.
func (o *Online) LastError() error { return o.lastErr }

// HealthStats is a point-in-time snapshot of the resilience machinery, for
// supervisors and status endpoints.
type HealthStats struct {
	// State is the current rung of the degradation ladder.
	State Health
	// BreakerOpen reports an open (or half-open) circuit breaker.
	BreakerOpen bool
	// HalfOpen reports that a probe retrain succeeded and is awaiting
	// confirmation before the breaker closes.
	HalfOpen bool
	// ConsecutiveFailures counts retrain failures since the last success.
	ConsecutiveFailures int
	// RetrainFailures counts all failed (re)train attempts.
	RetrainFailures int
	// Retrains counts successful QA retrains.
	Retrains int
	// BreakerTrips counts how many times the breaker opened (failures or
	// thrash).
	BreakerTrips int
	// TournamentForecasts counts forecasts served by the tournament
	// meta-selector.
	TournamentForecasts int
	// SelectorForecasts counts forecasts served by the windowed-MSE
	// selector when the tournament's chosen expert could not forecast.
	SelectorForecasts int
	// FallbackForecasts counts last-resort (last finite value) forecasts.
	FallbackForecasts int
	// DriftDemotions counts proactive Healthy→Tournament demotions fired by
	// the drift detector (always 0 when drift demotion is disabled).
	DriftDemotions int
	// NextAttemptIn is the number of observations until the next (re)train
	// attempt is allowed (0 = allowed now).
	NextAttemptIn int
	// LastError is the most recent retrain failure message ("" if the last
	// attempt succeeded).
	LastError string
}

// HealthStats returns a snapshot of the resilience counters.
func (o *Online) HealthStats() HealthStats {
	s := HealthStats{
		State:               o.health,
		BreakerOpen:         o.breakerOpen,
		HalfOpen:            o.halfOpen,
		ConsecutiveFailures: o.consecFailures,
		RetrainFailures:     o.retrainFailures,
		Retrains:            o.retrains,
		BreakerTrips:        o.breakerTrips,
		TournamentForecasts: o.tournamentForecasts,
		SelectorForecasts:   o.selectorForecasts,
		FallbackForecasts:   o.fallbackForecasts,
		DriftDemotions:      o.driftDemotions,
		NextAttemptIn:       o.backoffLeft,
	}
	if o.lastErr != nil {
		s.LastError = o.lastErr.Error()
	}
	return s
}

// AuditMSE returns the QA's current audit-window MSE (normalized space) and
// the number of forecasts it covers.
func (o *Online) AuditMSE() (float64, int) {
	if o.auditLen == 0 {
		return 0, 0
	}
	var s float64
	for i := 0; i < o.auditLen; i++ {
		s += o.auditSq[i]
	}
	return s / float64(o.auditLen), o.auditLen
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func allFinite(v []float64) bool {
	for _, x := range v {
		if !isFinite(x) {
			return false
		}
	}
	return true
}

// Observe feeds one observation. It scores the previous LAR forecast (if
// any) for the QA audit, keeps the fallback selector's error statistics
// warm, appends to history, performs initial training when enough samples
// have arrived, and retrains when the audit MSE breaches the threshold —
// subject to the backoff and circuit-breaker schedule. It reports whether a
// (re)train happened.
//
// A failed (re)train is absorbed into the health state machine (see Health
// and LastError) rather than returned: the predictor degrades but keeps
// serving. Observe never retries a failed train on the very next
// observation; the armed backoff governs the next attempt.
func (o *Online) Observe(v float64) (retrained bool, err error) {
	defer o.observeGauges()
	// Score the pending forecast in normalized space.
	driftFired := false
	if o.hasPending && o.lar.Trained() && isFinite(v) && isFinite(o.pending) {
		sp := obs.StartSpan(o.tracer, obs.StageQAAudit)
		d := o.lar.Normalizer().ApplyValue(o.pending) - o.lar.Normalizer().ApplyValue(v)
		o.auditSq[o.auditNext] = d * d
		o.auditNext = (o.auditNext + 1) % len(o.auditSq)
		if o.auditLen < len(o.auditSq) {
			o.auditLen++
		}
		// The drift detector watches the same normalized error stream the QA
		// audits, but tests it relatively (recent vs long-run level), so it
		// reacts to a regime shift before the absolute threshold is crossed.
		if o.drift != nil {
			driftFired = o.drift.Observe(d * d)
		}
		obs.EndSpan(sp, nil)
	}
	o.hasPending = false

	o.foldSelector(v)
	if isFinite(v) {
		o.lastFinite, o.hasFinite = v, true
	}

	o.history = append(o.history, v)
	if len(o.history) > o.cfg.MaxHistory {
		// Drop the oldest half-excess in one copy to amortize.
		excess := len(o.history) - o.cfg.MaxHistory
		o.history = append(o.history[:0], o.history[excess:]...)
	}
	o.sinceRetrain++
	if o.backoffLeft > 0 {
		o.backoffLeft--
	}

	if o.health == Failed {
		return false, nil
	}

	// Proactive drift demotion: the active model's recent error has run
	// persistently above its own long-run level. Demote to the tournament
	// tier now — the Tournament rung's retry path then retrains it —
	// rather than waiting for the QA audit's absolute threshold. Gated on
	// the same spacing as QA retrains so a shift right after a (re)train
	// cannot thrash the ladder.
	if driftFired && o.health == Healthy && !o.breakerOpen && !o.halfOpen &&
		o.sinceRetrain >= o.cfg.MinRetrainSpacing {
		o.driftDemotions++
		if o.met != nil {
			o.met.driftDemotions.Inc()
		}
		o.setHealth(Tournament)
	}

	// Half-open: a probe model is serving. A fresh QA breach reopens the
	// breaker; surviving the confirmation window closes it.
	if o.halfOpen {
		o.halfOpenLeft--
		if o.qaBreach() {
			o.reopenBreaker()
		} else if o.halfOpenLeft <= 0 {
			o.closeBreaker()
		}
		return false, nil
	}

	switch {
	case !o.lar.Trained():
		// Initial training (or retry after a failed initial training).
		if len(o.history) >= o.cfg.TrainSize && o.backoffLeft == 0 {
			return o.attemptTrain(), nil
		}
	case o.breakerOpen:
		// Probe retrain on the breaker's schedule.
		if o.backoffLeft == 0 {
			return o.attemptTrain(), nil
		}
	case o.health != Healthy:
		// Demoted by a failed retrain with the breaker still closed:
		// retry when the backoff expires, no QA signal needed.
		if o.backoffLeft == 0 {
			return o.attemptTrain(), nil
		}
	case o.qaFires():
		return o.attemptTrain(), nil
	}
	return false, nil
}

// foldSelector folds one observation into the selectors' error statistics
// so the safety net is warm the moment a retrain fails. Called before v is
// appended, so the trailing history is the prediction window that
// precedes v.
func (o *Online) foldSelector(v float64) {
	m := o.cfg.Predictor.WindowSize
	if len(o.history) < m {
		return
	}
	w := o.history[len(o.history)-m:]
	if !allFinite(w) || !isFinite(v) {
		// The selectors cannot run on this window; if one is the active
		// forecast source, drop to the last-resort rung.
		if o.health == Tournament {
			o.setHealth(Fallback)
		}
		return
	}
	step, err := o.selector.Step(w, v)
	if err != nil {
		if o.health == Tournament {
			o.setHealth(Fallback)
		}
		return
	}
	// The tournament rides the selector's per-expert forecast buffer: same
	// pool, same predictor runs, no extra allocations. The current health
	// rung tags the context hash so regimes that only differ in ladder
	// position learn separate choice tables.
	o.tour.SetTag(uint8(o.health))
	o.tour.Observe(step.All, v)
	if o.health == Fallback {
		o.setHealth(Tournament)
	}
}

// observeGauges refreshes the per-observation gauges (backoff countdown,
// audit MSE). One deferred call per Observe; free when uninstrumented.
func (o *Online) observeGauges() {
	if o.met == nil {
		return
	}
	o.met.backoffLeft.Set(float64(o.backoffLeft))
	if mse, n := o.AuditMSE(); n > 0 {
		o.met.auditMSE.Set(mse)
	}
}

// qaFires reports whether the QA audit demands a retrain.
func (o *Online) qaFires() bool {
	if o.sinceRetrain < o.cfg.MinRetrainSpacing {
		return false
	}
	return o.qaBreach()
}

// qaBreach reports a full audit window above the MSE threshold, ignoring
// retrain spacing.
func (o *Online) qaBreach() bool {
	if o.cfg.MSEThreshold <= 0 {
		return false
	}
	if o.auditLen < len(o.auditSq) {
		return false // audit window not yet full
	}
	mse, _ := o.AuditMSE()
	return mse > o.cfg.MSEThreshold
}

// attemptTrain runs one (re)train attempt and routes the outcome through
// the health state machine. It reports whether the train succeeded.
func (o *Online) attemptTrain() bool {
	wasTrained := o.lar.Trained()
	probe := o.breakerOpen
	spacing := o.sinceRetrain
	if o.met != nil {
		o.met.retrainAttempts.Inc()
	}
	if err := o.train(); err != nil {
		o.trainFailed(err)
		return false
	}
	o.lastErr = nil
	if wasTrained {
		o.retrains++
	}
	if probe {
		// The probe succeeded; serve the fresh model but stay formally on
		// the Tournament rung until it survives the half-open confirmation
		// window.
		o.halfOpen = true
		o.halfOpenLeft = o.cfg.HalfOpenWindow
		o.setHealth(Tournament)
		return true
	}
	o.setHealth(Healthy)
	o.consecFailures = 0
	o.backoff = o.cfg.RetrainBackoff
	// Thrash detection: QA retrains firing back-to-back at (close to) the
	// minimum possible spacing mean retraining is not fixing the model.
	if wasTrained && o.cfg.ThrashLimit > 0 && spacing <= o.thrashSpacing {
		o.thrashRun++
		if o.thrashRun >= o.cfg.ThrashLimit {
			o.tripBreaker()
		}
	} else {
		o.thrashRun = 0
	}
	return true
}

// trainFailed arms the backoff, trips the breaker on repeated failures, and
// moves the predictor down the ladder.
func (o *Online) trainFailed(err error) {
	o.lastErr = err
	o.retrainFailures++
	o.consecFailures++
	o.thrashRun = 0
	if o.met != nil {
		o.met.retrainFailures.Inc()
	}
	if o.health == Healthy {
		o.setHealth(Tournament)
	}
	if o.cfg.FailureLimit > 0 && o.consecFailures >= o.cfg.FailureLimit {
		o.setHealth(Failed)
		return
	}
	if o.breakerOpen {
		// Failed probe: wait a full probe interval before the next one.
		o.backoffLeft = o.cfg.ProbeSpacing
		return
	}
	if o.consecFailures >= o.cfg.BreakerThreshold {
		o.tripBreaker()
		return
	}
	o.backoffLeft = o.backoff
	next := int(float64(o.backoff) * o.cfg.BackoffFactor)
	if next <= o.backoff {
		next = o.backoff + 1
	}
	if next > o.cfg.MaxBackoff {
		next = o.cfg.MaxBackoff
	}
	o.backoff = next
}

// tripBreaker opens the circuit breaker: no retrains until the next probe.
func (o *Online) tripBreaker() {
	o.breakerOpen = true
	o.halfOpen = false
	o.breakerTrips++
	o.breakerDegrade()
	o.backoffLeft = o.cfg.ProbeSpacing
	o.thrashRun = 0
	if o.met != nil {
		o.met.breakerTrips.Inc()
		o.met.breakerOpen.Set(1)
	}
}

// reopenBreaker handles a QA breach during half-open confirmation.
func (o *Online) reopenBreaker() {
	o.halfOpen = false
	o.breakerTrips++
	o.breakerDegrade()
	o.backoffLeft = o.cfg.ProbeSpacing
	if o.met != nil {
		o.met.breakerTrips.Inc()
		o.met.breakerOpen.Set(1)
	}
}

// breakerDegrade drops the health off the Healthy rung without clobbering a
// deeper rung (Fallback/Failed).
func (o *Online) breakerDegrade() {
	if o.health == Healthy {
		o.setHealth(Tournament)
	}
}

// closeBreaker confirms a recovered model after a clean half-open window.
func (o *Online) closeBreaker() {
	o.breakerOpen = false
	o.halfOpen = false
	o.setHealth(Healthy)
	o.consecFailures = 0
	o.backoff = o.cfg.RetrainBackoff
	o.thrashRun = 0
	if o.met != nil {
		o.met.breakerOpen.Set(0)
	}
}

// train (re)fits the LARPredictor on the most recent TrainSize samples and
// clears the audit ring. On failure the previous model (if any) and audit
// state are left untouched; the caller arms the retry backoff.
func (o *Online) train() error {
	train := o.history[len(o.history)-o.cfg.TrainSize:]
	if err := o.lar.Train(train); err != nil {
		return fmt.Errorf("core: online (re)train: %w", err)
	}
	o.sinceRetrain = 0
	o.auditNext, o.auditLen = 0, 0
	if o.drift != nil {
		// The fresh model accumulates a fresh error reference.
		o.drift.Reset()
	}
	return nil
}

// Forecast returns the one-step-ahead forecast from the current history,
// served by the highest rung of the fallback ladder that is currently
// usable:
//
//  1. the trained LARPredictor (Healthy, or half-open breaker probes),
//  2. the tournament meta-selector over {LAST, SW_AVG, SW_MEDIAN}; when its
//     chosen expert cannot forecast the window, the windowed cumulative-MSE
//     selector over the same pool serves instead (SourceSelector),
//  3. the last finite observation.
//
// Prediction.Source identifies the rung. LAR forecasts are remembered and
// scored against the next Observe; lower-rung forecasts are not, so the QA
// audit always measures the LARPredictor itself. ErrFailed is returned in
// the terminal Failed state, ErrNotReady when nothing can forecast yet.
func (o *Online) Forecast() (Prediction, error) {
	if o.health == Failed {
		return Prediction{}, ErrFailed
	}
	serveLAR := o.lar.Trained() && (o.health == Healthy || o.halfOpen)
	if serveLAR {
		p, err := o.larForecast()
		if err == nil && isFinite(p.Value) {
			return p, nil
		}
		// A trained model that cannot forecast this window: degrade for
		// this forecast only; the QA/backoff machinery owns state changes.
		return o.degradedForecast()
	}
	if !o.lar.Trained() && o.health == Healthy {
		// Never trained and never failed: preserve warm-up semantics.
		return Prediction{}, ErrNotReady
	}
	return o.degradedForecast()
}

// larForecast is the Healthy-rung forecast path.
func (o *Online) larForecast() (Prediction, error) {
	m := o.cfg.Predictor.WindowSize
	if len(o.history) < m {
		return Prediction{}, fmt.Errorf("core: %d observations, need >= %d: %w",
			len(o.history), m, timeseries.ErrShort)
	}
	p, err := o.lar.Forecast(o.history[len(o.history)-m:])
	if err != nil {
		return Prediction{}, err
	}
	// Arm the QA's pending forecast only when it is finite. A non-finite
	// value (the window held a NaN/Inf) is never served — Forecast degrades
	// it — and scoring it would write NaN into the audit ring, where it
	// disables the MSE comparison (NaN > threshold is always false) until
	// it ages out.
	if isFinite(p.Value) {
		o.pending = p.Value
		o.hasPending = true
	}
	return p, nil
}

// degradedForecast serves the tournament rung, falling through to the
// last-resort rung when the selectors cannot run.
func (o *Online) degradedForecast() (Prediction, error) {
	sp := obs.StartSpan(o.tracer, obs.StageFallbackForecast)
	p, err := o.degradedForecastInner()
	obs.EndSpan(sp, err)
	return p, err
}

func (o *Online) degradedForecastInner() (Prediction, error) {
	m := o.cfg.Predictor.WindowSize
	if len(o.history) >= m {
		w := o.history[len(o.history)-m:]
		if allFinite(w) {
			// The tournament's context-indexed choice of expert. Falls
			// through to the windowed-MSE selector if the chosen expert
			// cannot forecast this window.
			sel := o.tour.Select()
			if v, err := o.fbPool.At(sel).Predict(w); err == nil && isFinite(v) {
				o.tournamentForecasts++
				if o.met != nil {
					o.met.forecastsTournament.Inc()
				}
				var std float64
				if stats := o.selector.ErrStats(); isFinite(stats[sel]) && stats[sel] > 0 {
					std = math.Sqrt(stats[sel])
				}
				return Prediction{
					Value:        v,
					Normalized:   o.normalizedIfTrained(v),
					Selected:     sel,
					SelectedName: o.fbPool.At(sel).Name(),
					StdEstimate:  std,
					Source:       SourceTournament,
				}, nil
			}
			sel = o.selector.Select()
			if v, err := o.fbPool.At(sel).Predict(w); err == nil && isFinite(v) {
				o.selectorForecasts++
				if o.met != nil {
					o.met.forecastsSelector.Inc()
				}
				var std float64
				if stats := o.selector.ErrStats(); stats[sel] > 0 {
					std = math.Sqrt(stats[sel])
				}
				return Prediction{
					Value:        v,
					Normalized:   o.normalizedIfTrained(v),
					Selected:     sel,
					SelectedName: o.fbPool.At(sel).Name(),
					StdEstimate:  std,
					Source:       SourceSelector,
				}, nil
			}
		}
	}
	if !o.hasFinite {
		return Prediction{}, ErrNotReady
	}
	o.fallbackForecasts++
	if o.met != nil {
		o.met.forecastsLastResort.Inc()
	}
	if o.health == Tournament {
		o.setHealth(Fallback)
	}
	return Prediction{
		Value:        o.lastFinite,
		Normalized:   o.normalizedIfTrained(o.lastFinite),
		SelectedName: "LAST",
		Source:       SourceLastResort,
	}, nil
}

// normalizedIfTrained maps a raw value through the trained normalizer, or
// returns 0 when no normalization coefficients exist yet.
func (o *Online) normalizedIfTrained(v float64) float64 {
	if !o.lar.Trained() {
		return 0
	}
	return o.lar.Normalizer().ApplyValue(v)
}

// Step fuses the Observe+Forecast pair every streaming consumer writes:
// it feeds one observation, then returns the one-step-ahead forecast for
// the observation that follows, along with the health rung that served
// it. The error is ErrNotReady during warm-up, ErrFailed in the terminal
// state — the same contracts as Forecast; the observation is recorded
// either way. Use Observe and Forecast separately when the two must be
// interleaved with other work (e.g. scoring the previous forecast against
// v before issuing the next one).
func (o *Online) Step(v float64) (Prediction, Health, error) {
	if _, err := o.Observe(v); err != nil {
		return Prediction{}, o.health, err
	}
	p, err := o.Forecast()
	return p, o.health, err
}
