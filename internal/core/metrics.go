package core

import (
	"sync/atomic"

	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/predictors"
)

// larMetrics holds the LARPredictor's instruments, pre-bound at
// construction so the hot forecast path never touches the registry's
// family maps: counting a forecast is one atomic add through a cached
// pointer. A nil *larMetrics (no registry attached) disables everything
// behind a single branch.
type larMetrics struct {
	// forecastSeconds is the end-to-end latency of the hot forecast path
	// (normalize + project + classify + expert predict). It is sampled —
	// see sampleForecast — because on a path this short the two clock
	// reads cost more than the work being measured; forecastsLAR carries
	// the exact call count.
	forecastSeconds *obs.Histogram
	// forecastTick drives the latency sampling schedule.
	forecastTick atomic.Uint64
	// forecastsLAR counts forecasts served by the trained model
	// (larpredictor_forecasts_total{source="LAR"}).
	forecastsLAR *obs.Counter
	// decisions[i] counts classifier selections of pool expert i.
	decisions []*obs.Counter
	// trainSeconds is the latency of full (re)trains.
	trainSeconds *obs.Histogram
}

// newLARMetrics binds the predictor's instruments on a registry scope.
func newLARMetrics(r *obs.Registry, pool *predictors.Pool) *larMetrics {
	if r == nil {
		return nil
	}
	m := &larMetrics{
		forecastSeconds: r.Histogram1("larpredictor_forecast_seconds",
			"End-to-end latency of the hot forecast path (sampled, 1 in 8 calls).", nil),
		forecastsLAR: r.Counter("larpredictor_forecasts_total",
			"Forecasts served, by fallback-ladder source.", "source").
			WithLabels(SourceLAR),
		trainSeconds: r.Histogram1("larpredictor_train_seconds",
			"Latency of full (re)trains: labeling, PCA fit, k-NN indexing.", nil),
	}
	decisions := r.Counter("larpredictor_classifier_decisions_total",
		"k-NN best-expert classifications, by selected expert.", "expert")
	m.decisions = make([]*obs.Counter, pool.Size())
	for i := 0; i < pool.Size(); i++ {
		m.decisions[i] = decisions.WithLabels(pool.At(i).Name())
	}
	return m
}

// sampleForecast reports whether this forecast's latency should be timed:
// one call in eight, starting with the first, so the histogram stays
// representative while the hot path usually skips both clock reads.
func (m *larMetrics) sampleForecast() bool {
	return m.forecastTick.Add(1)&7 == 1
}

// onlineMetrics holds the streaming predictor's instruments; see
// larMetrics for the binding discipline.
type onlineMetrics struct {
	// healthState exports the current ladder rung as a number
	// (0 Healthy, 1 Tournament, 3 Fallback, 4 Failed).
	healthState *obs.Gauge
	// transitions counts health-state machine edges.
	transitions *obs.CounterVec
	// retrainAttempts/retrainFailures count (re)train attempts and the
	// failed subset.
	retrainAttempts *obs.Counter
	retrainFailures *obs.Counter
	// backoffLeft exports observations until the next allowed retrain.
	backoffLeft *obs.Gauge
	// breakerOpen (0/1) and breakerTrips export the circuit breaker.
	breakerOpen  *obs.Gauge
	breakerTrips *obs.Counter
	// auditMSE exports the QA audit-window MSE (normalized space).
	auditMSE *obs.Gauge
	// forecastsSelector/forecastsLastResort/forecastsTournament count
	// lower-rung serves, completing the forecasts_total source family the
	// LARPredictor starts.
	forecastsSelector   *obs.Counter
	forecastsLastResort *obs.Counter
	forecastsTournament *obs.Counter
	// driftDemotions counts proactive drift demotions off the Healthy rung.
	driftDemotions *obs.Counter
}

func newOnlineMetrics(r *obs.Registry) *onlineMetrics {
	if r == nil {
		return nil
	}
	forecasts := r.Counter("larpredictor_forecasts_total",
		"Forecasts served, by fallback-ladder source.", "source")
	return &onlineMetrics{
		healthState: r.Gauge1("larpredictor_health_state",
			"Current fallback-ladder rung: 0 Healthy, 1 Tournament, 3 Fallback, 4 Failed."),
		transitions: r.Counter("larpredictor_health_transitions_total",
			"Health-state machine transitions.", "from", "to"),
		retrainAttempts: r.Counter1("larpredictor_retrain_attempts_total",
			"(Re)train attempts, including initial training and breaker probes."),
		retrainFailures: r.Counter1("larpredictor_retrain_failures_total",
			"Failed (re)train attempts."),
		backoffLeft: r.Gauge1("larpredictor_retrain_backoff_observations",
			"Observations until the next (re)train attempt is allowed."),
		breakerOpen: r.Gauge1("larpredictor_breaker_open",
			"Whether the retrain circuit breaker is open (1) or closed (0)."),
		breakerTrips: r.Counter1("larpredictor_breaker_trips_total",
			"Times the retrain circuit breaker opened (failures or thrash)."),
		auditMSE: r.Gauge1("larpredictor_qa_audit_mse",
			"QA audit-window MSE in normalized space."),
		forecastsSelector:   forecasts.WithLabels(SourceSelector),
		forecastsLastResort: forecasts.WithLabels(SourceLastResort),
		forecastsTournament: forecasts.WithLabels(SourceTournament),
		driftDemotions: r.Counter1("larpredictor_drift_demotions_total",
			"Proactive Healthy-to-Tournament demotions fired by the drift detector."),
	}
}

// recordHealth moves the health state through the metrics: one transition
// count and the state gauge. Call via Online.setHealth.
func (m *onlineMetrics) recordHealth(from, to Health) {
	if m == nil {
		return
	}
	m.transitions.WithLabels(from.String(), to.String()).Inc()
	m.healthState.Set(float64(to))
}

// sync refreshes every gauge from the predictor's current state — used
// after a state restore, when the usual incremental updates were skipped.
func (m *onlineMetrics) sync(o *Online) {
	if m == nil {
		return
	}
	m.healthState.Set(float64(o.health))
	m.backoffLeft.Set(float64(o.backoffLeft))
	m.breakerOpen.Set(boolGauge(o.breakerOpen))
	if mse, n := o.AuditMSE(); n > 0 {
		m.auditMSE.Set(mse)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
