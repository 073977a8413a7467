package core

import (
	"github.com/acis-lab/larpredictor/internal/knn"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/predictors"
	"github.com/acis-lab/larpredictor/internal/tournament"
)

// Option attaches optional machinery — custom pools, vote strategies,
// metrics, tracing — to New and NewOnline without widening Config for
// every new concern. Options compose left to right; the zero set leaves
// the configuration untouched.
type Option func(*optionSet)

// optionSet is the resolved option state a constructor applies.
type optionSet struct {
	pool    *predictors.Pool
	vote    knn.VoteStrategy
	voteSet bool
	metrics *obs.Registry
	tracer  obs.Tracer
	drift   *tournament.DriftConfig
}

func applyOptions(opts []Option) optionSet {
	var set optionSet
	for _, o := range opts {
		if o != nil {
			o(&set)
		}
	}
	return set
}

// apply folds the option set into a Config: options win over the
// corresponding Config fields, which remain supported for compatibility.
func (s *optionSet) apply(cfg *Config) {
	if s.pool != nil {
		cfg.Pool = s.pool
	}
	if s.voteSet {
		cfg.Vote = s.vote
	}
}

// WithPool sets the expert pool, overriding Config.Pool.
func WithPool(p *predictors.Pool) Option {
	return func(s *optionSet) { s.pool = p }
}

// WithVote sets the k-NN neighbor-combination strategy, overriding
// Config.Vote.
func WithVote(v knn.VoteStrategy) Option {
	return func(s *optionSet) { s.vote = v; s.voteSet = true }
}

// WithMetrics attaches a metrics registry (or a labeled scope of one —
// see obs.Registry.With): the predictor registers its instrument families
// on it and updates them as it runs. A nil registry leaves the predictor
// uninstrumented, which costs nothing on the hot path.
func WithMetrics(r *obs.Registry) Option {
	return func(s *optionSet) { s.metrics = r }
}

// WithTracer attaches a per-stage tracer: every pipeline stage (normalize,
// PCA project, k-NN classify, expert forecast, QA audit, train) is wrapped
// in a span. A nil tracer disables tracing at zero cost.
func WithTracer(t obs.Tracer) Option {
	return func(s *optionSet) { s.tracer = t }
}

// applyOnline folds streaming-only options into an OnlineConfig; NewOnline
// calls it after apply. Options win over the corresponding config fields.
func (s *optionSet) applyOnline(cfg *OnlineConfig) {
	if s.drift != nil {
		cfg.Drift = s.drift
	}
}

// WithDrift enables proactive drift demotion on an Online predictor (see
// OnlineConfig.Drift), overriding that field. Ignored by New.
func WithDrift(cfg tournament.DriftConfig) Option {
	return func(s *optionSet) { s.drift = &cfg }
}
