// Package larpredictor is the public API of the LARPredictor library, a Go
// reproduction of "Adaptive Predictor Integration for System Performance
// Prediction" (Zhang & Figueiredo, IPPS 2007).
//
// The Learning Aided Adaptive Resource Predictor (LARPredictor) integrates a
// pool of time-series prediction experts — LAST, a Yule–Walker-fitted AR
// model, and a sliding-window average in the paper's configuration — and
// *learns* which expert suits the workload of the moment. During training,
// every expert runs in parallel on every window of the training series and
// the per-window winner becomes a class label; windows are normalized,
// PCA-projected to two dimensions, and indexed by a k-NN classifier. At
// prediction time the classifier forecasts the best expert for the current
// window and only that expert runs.
//
// # Quick start
//
//	cfg := larpredictor.DefaultConfig(5) // window m=5, PCA n=2, 3-NN
//	p, err := larpredictor.New(cfg)
//	if err != nil { ... }
//	if err := p.Train(history); err != nil { ... }
//	pred, err := p.Forecast(history[len(history)-5:])
//	fmt.Println(pred.Value, pred.SelectedName)
//
// For streaming workloads, NewOnline wraps the predictor with incremental
// observation, automatic initial training, and QA-triggered retraining. The
// streaming predictor is fault tolerant: failed retrains back off
// exponentially behind a circuit breaker while forecasts degrade down a
// fallback ladder (trained model → tournament meta-selector → last finite
// observation) whose rung is reported by Health and
// Prediction.Source. Online.Step fuses one Observe with the following
// Forecast for the common feed-and-predict loop. For benchmarking, Evaluate
// scores the predictor against the perfect-selection oracle (P-LAR), every
// single expert, and the Network Weather Service cumulative-MSE baseline
// (package-level NewCumulativeMSE / NewWindowedMSE).
//
// # Options
//
// New and NewOnline accept functional options that attach optional
// machinery without widening Config:
//
//	reg := larpredictor.NewRegistry()
//	p, err := larpredictor.New(cfg,
//		larpredictor.WithPool(pool),              // custom expert pool
//		larpredictor.WithVote(vote),              // k-NN combination rule
//		larpredictor.WithMetrics(reg),            // instrument counters/latency
//		larpredictor.WithTracer(tracer),          // per-stage spans
//	)
//
// Options win over the corresponding Config fields, which remain supported.
// WithMetrics registers Prometheus-style instrument families on a Registry
// (scrape them via MetricsHandler or Registry.WriteProm); WithTracer
// wraps every pipeline stage — normalize, PCA project, k-NN classify,
// expert forecast, QA audit, train — in a span. Both are nil-safe and cost
// nothing when omitted.
//
// Canonical expert pools are built by BuildPool(windowSize, tier), where
// tier is TierPaper, TierExtended, or TierFull; NewPool assembles a custom
// roster from any Predictor implementations.
package larpredictor

import (
	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/predictors"
	"github.com/acis-lab/larpredictor/internal/timeseries"
	"github.com/acis-lab/larpredictor/internal/tournament"
)

// Core predictor types, re-exported from the implementation packages. The
// aliases make the internal implementations usable through this package
// without exposing the internal import paths.
type (
	// Config parameterizes a LARPredictor; see DefaultConfig.
	Config = core.Config
	// LARPredictor is the trained adaptive predictor.
	LARPredictor = core.LARPredictor
	// Prediction is a single forecast with the expert that produced it.
	Prediction = core.Prediction
	// EvalResult is the outcome of Evaluate on a test series.
	EvalResult = core.EvalResult
	// OnlineConfig parameterizes the streaming predictor.
	OnlineConfig = core.OnlineConfig
	// Online is the streaming predictor with QA-driven retraining.
	Online = core.Online
	// Health is the streaming predictor's degradation state
	// (Healthy → Tournament → Fallback → Failed).
	Health = core.Health
	// HealthStats is a snapshot of the resilience machinery (circuit
	// breaker, retrain backoff, fallback counters).
	HealthStats = core.HealthStats
	// TournamentConfig parameterizes the tournament meta-selector tier;
	// see OnlineConfig.Tournament.
	TournamentConfig = tournament.Config
	// DriftConfig parameterizes proactive drift demotion; see WithDrift
	// and OnlineConfig.Drift.
	DriftConfig = tournament.DriftConfig

	// Predictor is the one-step-ahead expert interface; implement it to
	// add custom experts to a Pool.
	Predictor = predictors.Predictor
	// Pool is an ordered mix-of-experts.
	Pool = predictors.Pool

	// Normalizer holds z-score normalization coefficients.
	Normalizer = timeseries.Normalizer
	// Series is a timestamped, equally-spaced series of observations.
	Series = timeseries.Series
)

// Sentinel errors re-exported for errors.Is tests.
var (
	// ErrNotTrained is returned when forecasting before Train.
	ErrNotTrained = core.ErrNotTrained
	// ErrBadConfig is returned for invalid configuration.
	ErrBadConfig = core.ErrBadConfig
	// ErrNotReady is returned by Online.Forecast before initial training.
	ErrNotReady = core.ErrNotReady
	// ErrFailed is returned by Online.Forecast in the terminal Failed
	// state, after FailureLimit consecutive retrain failures.
	ErrFailed = core.ErrFailed
	// ErrWindowTooShort is returned when a prediction window has fewer
	// samples than the predictor order.
	ErrWindowTooShort = predictors.ErrWindowTooShort
	// ErrUnknownPredictor is returned by NewPredictor for unknown names.
	ErrUnknownPredictor = predictors.ErrUnknownPredictor
)

// Health states of the streaming predictor's fallback ladder.
const (
	// Healthy serves forecasts from the trained LARPredictor.
	Healthy = core.Healthy
	// Tournament serves the context-indexed tournament meta-selector while
	// retrains back off or the circuit breaker is open.
	Tournament = core.Tournament
	// Fallback serves the last finite observation.
	Fallback = core.Fallback
	// Failed is terminal; Forecast returns ErrFailed.
	Failed = core.Failed
)

// Forecast sources reported in Prediction.Source.
const (
	// SourceLAR marks a forecast served by the trained LARPredictor.
	SourceLAR = core.SourceLAR
	// SourceTournament marks a Tournament-rung forecast from the tournament
	// meta-selector.
	SourceTournament = core.SourceTournament
	// SourceSelector marks a Tournament-rung forecast from the windowed
	// cumulative-MSE selector, served when the tournament's chosen expert
	// cannot forecast the window.
	SourceSelector = core.SourceSelector
	// SourceLastResort marks a last-finite-observation forecast.
	SourceLastResort = core.SourceLastResort
)

// DefaultConfig returns the paper's configuration for a window size m:
// PCA to 2 components, 3 nearest neighbors, and the {LAST, AR(m), SW_AVG(m)}
// expert pool. The paper uses m = 5 for 24-hour traces sampled every five
// minutes and m = 16 for a 7-day trace sampled every thirty minutes.
func DefaultConfig(windowSize int) Config {
	return core.DefaultConfig(windowSize)
}

// Option attaches optional machinery — custom pools, vote strategies,
// metrics, tracing — to New and NewOnline; see WithPool, WithVote,
// WithMetrics, and WithTracer.
type Option = core.Option

// WithPool sets the expert pool, overriding Config.Pool.
func WithPool(p *Pool) Option { return core.WithPool(p) }

// WithVote sets the k-NN neighbor-combination strategy, overriding
// Config.Vote.
func WithVote(v VoteStrategy) Option { return core.WithVote(v) }

// WithDrift enables proactive drift demotion on an Online predictor: a
// relative CUSUM over the active model's forecast error that demotes a
// stale model to the tournament tier before the QA audit's absolute
// threshold fires. The zero DriftConfig selects the defaults.
func WithDrift(cfg DriftConfig) Option { return core.WithDrift(cfg) }

// New validates the configuration and returns an untrained LARPredictor.
func New(cfg Config, opts ...Option) (*LARPredictor, error) {
	return core.New(cfg, opts...)
}

// NewOnline returns a streaming predictor: feed observations with Observe
// (or Step, which also forecasts), read forecasts with Forecast. It trains
// itself after cfg.TrainSize observations and retrains when the QA
// audit-window MSE exceeds cfg.MSEThreshold.
func NewOnline(cfg OnlineConfig, opts ...Option) (*Online, error) {
	return core.NewOnline(cfg, opts...)
}

// PoolTier selects one of the canonical expert rosters for BuildPool:
// TierPaper, TierExtended, or TierFull.
type PoolTier = predictors.PoolTier

// Canonical pool tiers. The tiers nest, preserving class labels.
const (
	// TierPaper is the paper's three-expert pool {LAST, AR(m), SW_AVG(m)}.
	TierPaper = predictors.TierPaper
	// TierExtended adds running average, sliding-window median, exponential
	// smoothing, the tendency model of Yang et al., and polynomial
	// extrapolation (eight experts).
	TierExtended = predictors.TierExtended
	// TierFull adds the MA and ARIMA models from Dinda's host-load study
	// (ten experts); it needs windowSize >= 3.
	TierFull = predictors.TierFull
)

// BuildPool builds the canonical pool for a window size at the given tier,
// appending any extra experts after the tier's roster. It replaces the
// PaperPool/ExtendedPool/FullPool trio.
func BuildPool(windowSize int, tier PoolTier, extra ...Predictor) (*Pool, error) {
	return predictors.BuildPool(windowSize, tier, extra...)
}

// PaperPool returns the paper's three-expert pool {LAST, AR(m), SW_AVG(m)}.
//
// Deprecated: Use BuildPool(windowSize, TierPaper).
func PaperPool(windowSize int) *Pool {
	return predictors.PaperPool(windowSize)
}

// ExtendedPool returns the eight-expert pool: the paper pool plus running
// average, sliding-window median, exponential smoothing, the tendency model
// of Yang et al., and polynomial extrapolation.
//
// Deprecated: Use BuildPool(windowSize, TierExtended).
func ExtendedPool(windowSize int) *Pool {
	return predictors.ExtendedPool(windowSize)
}

// NewPool builds a pool from arbitrary experts, including user
// implementations of Predictor. Pool order defines the class labels.
func NewPool(experts ...Predictor) *Pool {
	return predictors.NewPool(experts...)
}

// RegisterPredictor adds a named expert factory to the global registry used
// by NewPredictor.
func RegisterPredictor(name string, factory func() Predictor) {
	predictors.Register(name, func() predictors.Predictor { return factory() })
}

// NewPredictor constructs a registered expert by name ("LAST", "AR",
// "SW_AVG", "SW_MEDIAN", "EXP_SMOOTH", "TENDENCY", ...).
func NewPredictor(name string) (Predictor, error) {
	return predictors.NewByName(name)
}

// FitNormalizer estimates z-score coefficients from a training series.
func FitNormalizer(train []float64) Normalizer {
	return timeseries.FitNormalizer(train)
}

// NewSeries wraps values in a named Series with a synthetic clock; use the
// timeseries helpers via the Series methods for slicing and validation.
func NewSeries(name string, values []float64) *Series {
	return timeseries.FromValues(name, values)
}

// MSE returns the mean squared error between predictions and observations.
func MSE(pred, obs []float64) (float64, error) {
	return timeseries.MSE(pred, obs)
}
