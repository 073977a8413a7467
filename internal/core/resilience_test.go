package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// resilienceCfg is a small, fast configuration for exercising the health
// state machine: window 5, train on 20, audit 10.
func resilienceCfg() OnlineConfig {
	cfg := onlineCfg(5, 20)
	return cfg
}

// feedCalm drives n observations of a highly predictable slow sinusoid,
// forecasting first when the model is trained (so the QA audit stays fed).
func feedCalm(t *testing.T, o *Online, n int, phase *int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if o.Trained() && o.Health() == Healthy {
			if _, err := o.Forecast(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := o.Observe(10 * math.Sin(float64(*phase)*0.05)); err != nil {
			t.Fatal(err)
		}
		*phase++
	}
}

// TestOnlineFailedTrainArmsBackoff is the retrain-thrash regression test:
// when every (re)train attempt fails — here because the training window
// always contains a NaN — the predictor must back off exponentially and
// eventually rest on the circuit breaker's probe schedule, not retry on
// every observation. Observe must absorb the failures, and the predictor
// must degrade visibly instead of silently staying Healthy.
func TestOnlineFailedTrainArmsBackoff(t *testing.T) {
	cfg := resilienceCfg()
	cfg.FailureLimit = -1 // stay demoted forever; Failed has its own test
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		v := 10 * math.Sin(float64(i)*0.05)
		if i%10 == 9 {
			v = math.NaN() // the 20-sample train window always holds one
		}
		if _, err := o.Observe(v); err != nil {
			t.Fatalf("observation %d: Observe returned %v; train failures must be absorbed", i, err)
		}
	}
	hs := o.HealthStats()
	if hs.RetrainFailures < 2 {
		t.Fatalf("only %d retrain failures; the failing window was never retried", hs.RetrainFailures)
	}
	// The regression: without backoff the predictor retries on (nearly)
	// every observation once the first attempt fails — hundreds of
	// attempts. Exponential backoff plus the breaker's probe schedule
	// bounds it to a handful.
	if hs.RetrainFailures > 15 {
		t.Errorf("%d retrain attempts over %d observations: failed train did not arm backoff",
			hs.RetrainFailures, n)
	}
	if hs.BreakerTrips == 0 {
		t.Error("breaker never tripped despite persistent train failures")
	}
	if !hs.BreakerOpen {
		t.Error("breaker not open while failures persist")
	}
	if got := o.Health(); got != Tournament && got != Fallback {
		t.Errorf("health = %s, want Tournament or Fallback", got)
	}
	if o.LastError() == nil {
		t.Error("LastError lost the train failure")
	}
	if hs.NextAttemptIn <= 0 {
		t.Error("no backoff armed after a failed attempt")
	}
	// Demoted, not dead: forecasts still flow from the fallback ladder.
	p, err := o.Forecast()
	if err != nil {
		t.Fatalf("Forecast while degraded: %v", err)
	}
	if p.Source == SourceLAR {
		t.Errorf("degraded forecast claims Source %q", p.Source)
	}
}

// TestOnlineFailureBudgetTerminal drives the predictor past FailureLimit
// consecutive failed retrains and checks the terminal Failed contract.
func TestOnlineFailureBudgetTerminal(t *testing.T) {
	cfg := resilienceCfg()
	cfg.BreakerThreshold = 2
	cfg.FailureLimit = 3
	cfg.ProbeSpacing = 15
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400 && o.Health() != Failed; i++ {
		v := 10 * math.Sin(float64(i)*0.05)
		if i%10 == 9 {
			v = math.NaN()
		}
		if _, err := o.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if o.Health() != Failed {
		t.Fatalf("health = %s after exhausting the failure budget, want Failed", o.Health())
	}
	if _, err := o.Forecast(); !errors.Is(err, ErrFailed) {
		t.Errorf("Forecast in Failed state: err = %v, want ErrFailed", err)
	}
	// Failed is terminal: no further attempts, but Observe stays usable.
	before := o.HealthStats().RetrainFailures
	for i := 0; i < 100; i++ {
		if _, err := o.Observe(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if after := o.HealthStats().RetrainFailures; after != before {
		t.Errorf("Failed predictor kept retraining: %d -> %d failures", before, after)
	}
}

// TestOnlineFallbackLadder walks the ladder end to end: Healthy serves LAR;
// a failed retrain demotes to the tournament rung; a non-finite
// window drops to the last-resort rung; clean data recovers to Healthy.
func TestOnlineFallbackLadder(t *testing.T) {
	cfg := resilienceCfg()
	cfg.MinRetrainSpacing = 10
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	phase := 0
	feedCalm(t, o, 40, &phase)
	if o.Health() != Healthy || !o.Trained() {
		t.Fatalf("health = %s trained=%v after calm warm-up", o.Health(), o.Trained())
	}
	p, err := o.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != SourceLAR {
		t.Fatalf("healthy forecast Source = %q, want %q", p.Source, SourceLAR)
	}

	// Poison the training window, then force a QA breach: the retrain
	// attempt fails on the NaN and the predictor degrades.
	if _, err := o.Observe(math.NaN()); err != nil {
		t.Fatal(err)
	}
	for i := 0; o.Health() == Healthy && i < 30; i++ {
		if _, err := o.Forecast(); err != nil {
			t.Fatal(err)
		}
		v := 1000.0
		if i%2 == 0 {
			v = -1000
		}
		if _, err := o.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if o.Health() != Tournament {
		t.Fatalf("health = %s after failed retrain, want Tournament", o.Health())
	}
	p, err = o.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != SourceTournament {
		t.Errorf("degraded forecast Source = %q, want %q", p.Source, SourceTournament)
	}
	if p.SelectedName == "" {
		t.Error("degraded forecast has no selected expert name")
	}
	if o.HealthStats().TournamentForecasts == 0 {
		t.Error("degraded forecast not counted")
	}

	// Non-finite trailing window: even the selector is unusable, so the
	// ladder drops to the last finite observation.
	if _, err := o.Observe(42.5); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Observe(math.NaN()); err != nil {
		t.Fatal(err)
	}
	if o.Health() != Fallback {
		t.Fatalf("health = %s with NaN in the window, want Fallback", o.Health())
	}
	p, err = o.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != SourceLastResort {
		t.Errorf("fallback forecast Source = %q, want %q", p.Source, SourceLastResort)
	}
	if p.Value != 42.5 {
		t.Errorf("fallback forecast = %g, want last finite observation 42.5", p.Value)
	}
	if o.HealthStats().FallbackForecasts == 0 {
		t.Error("fallback forecast not counted")
	}

	// Recovery: calm data flushes the NaN out of the train window; the
	// backoff expires; the retry succeeds and the ladder climbs back.
	for i := 0; i < 300 && o.Health() != Healthy; i++ {
		feedCalm(t, o, 1, &phase)
	}
	if o.Health() != Healthy {
		t.Fatalf("health = %s after recovery feed, want Healthy", o.Health())
	}
	p, err = o.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != SourceLAR {
		t.Errorf("recovered forecast Source = %q, want %q", p.Source, SourceLAR)
	}
}

// TestOnlineBreakerProbesAndCloses opens the breaker with repeated train
// failures, then removes the fault and checks the half-open choreography:
// a probe retrain succeeds, LAR serves during confirmation, and the breaker
// closes back to Healthy after a clean window.
func TestOnlineBreakerProbesAndCloses(t *testing.T) {
	cfg := resilienceCfg()
	cfg.BreakerThreshold = 2
	cfg.ProbeSpacing = 12
	cfg.HalfOpenWindow = 15
	cfg.FailureLimit = -1
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NaN every 10 observations keeps the 20-sample train window poisoned
	// until the breaker opens.
	i := 0
	for ; o.HealthStats().BreakerTrips == 0 && i < 400; i++ {
		v := 10 * math.Sin(float64(i)*0.05)
		if i%10 == 9 {
			v = math.NaN()
		}
		if _, err := o.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if !o.HealthStats().BreakerOpen {
		t.Fatal("breaker never opened")
	}

	// Fault cleared: feed calm data until a probe fires and succeeds.
	phase := i
	for j := 0; j < 200 && !o.HealthStats().HalfOpen; j++ {
		feedCalm(t, o, 1, &phase)
	}
	hs := o.HealthStats()
	if !hs.HalfOpen {
		t.Fatal("no successful probe retrain after the fault cleared")
	}
	if o.Health() != Tournament {
		t.Errorf("health = %s during half-open confirmation, want Tournament", o.Health())
	}
	// Half-open serves the fresh LAR model so the audit can judge it.
	p, err := o.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != SourceLAR {
		t.Errorf("half-open forecast Source = %q, want %q", p.Source, SourceLAR)
	}
	for j := 0; j < 100 && o.Health() != Healthy; j++ {
		feedCalm(t, o, 1, &phase)
	}
	hs = o.HealthStats()
	if o.Health() != Healthy || hs.BreakerOpen || hs.HalfOpen {
		t.Errorf("after confirmation window: health=%s open=%v halfOpen=%v, want Healthy closed",
			o.Health(), hs.BreakerOpen, hs.HalfOpen)
	}
	if hs.ConsecutiveFailures != 0 {
		t.Errorf("consecutive failures = %d after recovery, want 0", hs.ConsecutiveFailures)
	}
}

// TestOnlineThrashTripsBreaker feeds a series whose variance keeps doubling:
// every retrain succeeds but is stale within an audit window, so QA fires at
// the minimum spacing over and over. Thrash detection must open the breaker
// instead of letting the retrain storm continue.
func TestOnlineThrashTripsBreaker(t *testing.T) {
	cfg := resilienceCfg()
	cfg.ThrashLimit = 3
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	scale := 1.0
	for i := 0; i < 600 && o.HealthStats().BreakerTrips == 0; i++ {
		if o.Trained() {
			if _, err := o.Forecast(); err != nil && !errors.Is(err, ErrNotReady) {
				t.Fatal(err)
			}
		}
		if i%15 == 14 {
			scale *= 2 // stale within one audit window of any retrain
		}
		if _, err := o.Observe(scale * rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	hs := o.HealthStats()
	if hs.BreakerTrips == 0 {
		t.Fatalf("thrash never tripped the breaker (retrains=%d)", hs.Retrains)
	}
	if hs.Retrains < cfg.ThrashLimit {
		t.Errorf("breaker tripped after only %d retrains, thrash limit is %d", hs.Retrains, cfg.ThrashLimit)
	}
	if o.Health() != Tournament {
		t.Errorf("health = %s after a thrash trip, want Tournament", o.Health())
	}
}

// TestOnlineAuditRingResetAfterRetrain checks the QA ring is cleared by a
// successful retrain and refills — wrapping correctly — before it can fire
// again.
func TestOnlineAuditRingResetAfterRetrain(t *testing.T) {
	cfg := resilienceCfg()
	// Spacing far beyond the refill span below: after the retrain under
	// test, QA cannot re-fire, so the assertions see pure ring mechanics.
	cfg.MinRetrainSpacing = 40
	cfg.MSEThreshold = 0.5
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	phase := 0
	feedCalm(t, o, 65, &phase)
	if !o.Trained() {
		t.Fatal("not trained after warm-up")
	}
	// Regime shift until QA retrains.
	retrained := false
	for i := 0; i < 100 && !retrained; i++ {
		if _, err := o.Forecast(); err != nil {
			t.Fatal(err)
		}
		v := 500.0
		if i%2 == 0 {
			v = -500
		}
		r, err := o.Observe(v)
		if err != nil {
			t.Fatal(err)
		}
		retrained = r
	}
	if !retrained {
		t.Fatal("QA never retrained on the regime shift")
	}
	if _, n := o.AuditMSE(); n != 0 {
		t.Fatalf("audit ring holds %d entries right after a retrain, want 0", n)
	}
	// Refill past the window size with calm data (tiny errors against the
	// freshly fitted wide normalizer, so QA stays quiet): the ring must
	// wrap, keeping exactly AuditWindow entries.
	retrainsBefore := o.Retrains()
	feedCalm(t, o, cfg.AuditWindow+5, &phase)
	if _, n := o.AuditMSE(); n != cfg.AuditWindow {
		t.Errorf("audit ring holds %d entries after wrap-around, want %d", n, cfg.AuditWindow)
	}
	if o.Retrains() != retrainsBefore {
		t.Errorf("QA re-fired on a partial, freshly cleared ring")
	}
}

// TestOnlineForecastAfterNonFiniteObserve covers the Forecast → failed
// Observe → recovery edge: a pending LAR forecast followed by a non-finite
// observation must not be scored into the audit, and the stream recovers.
func TestOnlineForecastAfterNonFiniteObserve(t *testing.T) {
	cfg := resilienceCfg()
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stop the warm-up while the ring is still partially filled so that
	// both "not scored" and "resumed scoring" are observable in the count.
	phase := 0
	feedCalm(t, o, 26, &phase)
	if _, err := o.Forecast(); err != nil {
		t.Fatal(err)
	}
	_, before := o.AuditMSE()
	if before == 0 || before >= 10 {
		t.Fatalf("warm-up left %d audit entries, want a partial ring", before)
	}
	if _, err := o.Observe(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if _, after := o.AuditMSE(); after != before {
		t.Errorf("non-finite observation was scored into the audit: %d -> %d", before, after)
	}
	// The NaN-free path resumes once the Inf has left the prediction
	// window: forecasts from a window still holding it are non-finite and
	// are (correctly) never scored.
	feedCalm(t, o, cfg.Predictor.WindowSize+3, &phase)
	if _, n := o.AuditMSE(); n <= before {
		t.Errorf("audit did not resume after the non-finite observation (%d entries)", n)
	}
	if o.Health() == Failed {
		t.Error("a single non-finite observation killed the predictor")
	}
}

// TestOnlineConfigValidatesResilienceFields rejects nonsensical resilience
// settings.
func TestOnlineConfigValidatesResilienceFields(t *testing.T) {
	bad := []func(*OnlineConfig){
		func(c *OnlineConfig) { c.RetrainBackoff = -1 },
		func(c *OnlineConfig) { c.BackoffFactor = 0.5 },
		func(c *OnlineConfig) { c.MaxBackoff = -2 },
		func(c *OnlineConfig) { c.BreakerThreshold = -1 },
		func(c *OnlineConfig) { c.ProbeSpacing = -3 },
		func(c *OnlineConfig) { c.HalfOpenWindow = -1 },
		func(c *OnlineConfig) { c.FallbackWindow = -1 },
	}
	for i, mutate := range bad {
		cfg := resilienceCfg()
		mutate(&cfg)
		if _, err := NewOnline(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestBackoffStreakResetsAcrossRecovery is the recovery-reset regression
// test: after a degrade -> recover cycle, the retrain-backoff streak must
// restart from RetrainBackoff. If recovery left the grown delay (or the
// consecutive-failure count) behind, the first failure of the NEXT
// degradation would jump straight to the maximum backoff and the predictor
// would sit on the fallback ladder far longer than the failure history
// justifies. The test walks a full cycle — three failures with geometric
// growth, a clean recovery, then a fresh failure — and checks the armed
// delay after every failure against the expected schedule.
func TestBackoffStreakResetsAcrossRecovery(t *testing.T) {
	cfg := resilienceCfg()
	cfg.MinRetrainSpacing = 10 // RetrainBackoff defaults to this
	cfg.BreakerThreshold = 10  // keep the breaker out of this test
	cfg.FailureLimit = -1
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// armedDelays drives n observations from gen (indexed from the start of
	// this segment) and returns the backoff armed after each new retrain
	// failure.
	armedDelays := func(n int, gen func(j int) float64) []int {
		t.Helper()
		var armed []int
		failures := o.HealthStats().RetrainFailures
		for j := 0; j < n; j++ {
			if _, _, err := o.Step(gen(j)); err != nil && !errors.Is(err, ErrNotReady) {
				t.Fatal(err)
			}
			if hs := o.HealthStats(); hs.RetrainFailures > failures {
				failures = hs.RetrainFailures
				armed = append(armed, hs.NextAttemptIn)
			}
		}
		return armed
	}
	calm := func(j int) float64 { return 10 * math.Sin(float64(j)*0.5) }
	// Erratic enough to breach the QA threshold over a few audit entries
	// (but not in one, so the first fire cannot land on a still-clean train
	// window), with a NaN at the head of the segment and every 10th
	// observation after — every 20-sample train window holds one, so every
	// (re)train attempt fails.
	erratic := func(j int) float64 {
		if j%10 == 0 {
			return math.NaN()
		}
		return 15 * float64(1-2*(j%2))
	}

	if armed := armedDelays(100, calm); len(armed) != 0 {
		t.Fatalf("failures during calm warm-up: %v", armed)
	}
	if o.Health() != Healthy {
		t.Fatalf("health = %s after warm-up, want Healthy", o.Health())
	}

	// First degradation: three failures, geometric backoff 10 -> 20 -> 40.
	armed := armedDelays(100, erratic)
	want := []int{10, 20, 40}
	if len(armed) < len(want) {
		t.Fatalf("only %d failures in the first degradation: %v", len(armed), armed)
	}
	for i := range want {
		if armed[i] != want[i] {
			t.Fatalf("first degradation armed %v, want prefix %v", armed, want)
		}
	}

	// Recovery: clean data until the pending retry fires and succeeds.
	if armed := armedDelays(120, calm); len(armed) != 0 {
		t.Fatalf("failures during recovery: %v", armed)
	}
	if o.Health() != Healthy {
		t.Fatalf("health = %s after recovery, want Healthy", o.Health())
	}
	if hs := o.HealthStats(); hs.ConsecutiveFailures != 0 {
		t.Fatalf("recovery left %d consecutive failures on the streak", hs.ConsecutiveFailures)
	}

	// Second degradation: the regression — its first failure must arm the
	// initial delay again, not resume the grown schedule.
	armed = armedDelays(60, erratic)
	if len(armed) == 0 {
		t.Fatal("second degradation never failed a retrain")
	}
	if armed[0] != 10 {
		t.Fatalf("first failure after recovery armed %d, want %d (streak not reset)", armed[0], 10)
	}
}

// TestNaNForecastDoesNotPoisonAudit is the QA-audit poisoning regression
// test. A prediction window holding a NaN makes the trained model forecast
// NaN; that forecast is never served (Forecast degrades it), so it must not
// be scored either. Before the fix it was armed as the pending forecast,
// wrote NaN into the audit ring, and froze the QA for as long as NaNs kept
// arriving (NaN MSE > threshold is always false) — the predictor sat
// "Healthy" on a stale model it could never again audit.
func TestNaNForecastDoesNotPoisonAudit(t *testing.T) {
	cfg := resilienceCfg()
	cfg.BreakerThreshold = 10
	cfg.FailureLimit = -1
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := o.Step(10 * math.Sin(float64(i)*0.5)); err != nil && !errors.Is(err, ErrNotReady) {
			t.Fatal(err)
		}
	}
	if o.Health() != Healthy {
		t.Fatalf("health = %s after warm-up, want Healthy", o.Health())
	}
	// Garbage regime with a NaN every 10th observation: half the prediction
	// windows hold a NaN (NaN model forecast), and every 20-sample train
	// window holds one (every retrain fails).
	for j := 0; j < 100; j++ {
		v := 15 * float64(1-2*(j%2))
		if j%10 == 0 {
			v = math.NaN()
		}
		if _, _, err := o.Step(v); err != nil && !errors.Is(err, ErrNotReady) {
			t.Fatal(err)
		}
		if mse, n := o.AuditMSE(); n > 0 && !isFinite(mse) {
			t.Fatalf("step %d: audit MSE %v over %d entries — NaN forecast reached the audit ring", j, mse, n)
		}
	}
	// With the audit intact the QA fires on the garbage, the retrain fails
	// on the NaN-holding window, and the predictor degrades visibly.
	if hs := o.HealthStats(); hs.RetrainFailures == 0 {
		t.Error("QA never fired on the garbage regime: the audit was poisoned")
	}
	if o.Health() == Healthy {
		t.Error("predictor still Healthy on a regime its model cannot track")
	}
}
