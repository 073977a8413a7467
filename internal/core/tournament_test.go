package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/acis-lab/larpredictor/internal/tournament"
)

// TestTournamentTierServesDegradedForecasts: demotions land on the
// Tournament rung and its forecasts carry SourceTournament.
func TestTournamentTierServesDegradedForecasts(t *testing.T) {
	cfg := onlineCfg(5, 20)
	cfg.FailureLimit = -1
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every train window holds a NaN, so every (re)train fails and the
	// predictor lives on the degraded rungs.
	for i := 0; i < 200; i++ {
		v := 10 * math.Sin(float64(i)*0.05)
		if i%10 == 9 {
			v = math.NaN()
		}
		if _, err := o.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	// Put a fully finite window at the head of history so the tier can run.
	for i := 0; i < 6; i++ {
		if _, err := o.Observe(5 + float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Health(); got != Tournament {
		t.Fatalf("health = %s, want Tournament", got)
	}
	p, err := o.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != SourceTournament {
		t.Errorf("degraded forecast Source = %q, want %q", p.Source, SourceTournament)
	}
	if p.SelectedName == "" {
		t.Error("tournament forecast lost the selected expert name")
	}
	hs := o.HealthStats()
	if hs.TournamentForecasts == 0 {
		t.Error("HealthStats.TournamentForecasts not counted")
	}
}

// TestDriftDemotionFiresBeforeQA: a regime shift that raises the model's
// error well above its own baseline — but below the absolute QA threshold —
// must still demote the model, via the drift detector's relative test.
func TestDriftDemotionFiresBeforeQA(t *testing.T) {
	cfg := onlineCfg(5, 60)
	cfg.MSEThreshold = 1e6 // the absolute audit can never fire
	cfg.Drift = &tournament.DriftConfig{}
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	step := func(v float64) {
		// Step arms the pending forecast whenever the model serves, so the
		// drift detector sees the same error stream the QA audits.
		if _, _, err := o.Step(v); err != nil && !errors.Is(err, ErrNotReady) {
			t.Fatal(err)
		}
	}
	// A predictable baseline regime. The period (~13 observations) fits
	// many times into the training window, so the trained model has seen
	// every phase and its error is stationary — the precondition for "no
	// demotion without drift".
	for i := 0; i < 300; i++ {
		step(10*math.Sin(float64(i)*0.5) + 0.05*rng.NormFloat64())
	}
	if o.Health() != Healthy {
		t.Fatalf("health = %s after calm warm-up, want Healthy", o.Health())
	}
	if hs := o.HealthStats(); hs.DriftDemotions != 0 {
		t.Fatalf("%d drift demotions on stationary data", hs.DriftDemotions)
	}
	// Regime shift: same scale, much less predictable.
	for i := 300; i < 500; i++ {
		step(10*math.Sin(float64(i)*0.5) + 4*rng.NormFloat64())
	}
	hs := o.HealthStats()
	if hs.DriftDemotions == 0 {
		t.Fatal("drift never demoted the stale model (QA threshold was unreachable)")
	}
	if hs.Retrains == 0 {
		t.Error("drift demotion did not lead to a proactive retrain")
	}
}

// TestOnlineTournamentStateRoundTrip: snapshots of a predictor with the
// drift detector enabled must round-trip bit-identically and resume with
// identical behavior — the contract WAL replay and cluster handoff rely on.
func TestOnlineTournamentStateRoundTrip(t *testing.T) {
	cfg := onlineCfg(5, 20)
	cfg.Drift = &tournament.DriftConfig{}
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed diet: train, serve, degrade through a NaN stretch, recover —
	// so the tournament tables, drift state, and ladder state are all
	// non-trivial at snapshot time.
	feed := func(o *Online, i int) {
		v := 10*math.Sin(float64(i)*0.07) + 0.3*float64(i%4)
		if i >= 120 && i < 140 && i%5 == 0 {
			v = math.NaN()
		}
		if _, _, err := o.Step(v); err != nil &&
			!errors.Is(err, ErrNotReady) && !errors.Is(err, ErrFailed) {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		feed(o, i)
	}

	var buf bytes.Buffer
	if err := o.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := r.SaveState(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("tournament state does not round-trip bit-identically through save/restore")
	}

	// Identical continuation, including another degraded stretch.
	for i := 200; i < 320; i++ {
		feed(o, i)
		feed(r, i)
		if o.Health() != r.Health() {
			t.Fatalf("step %d: health %s vs restored %s", i, o.Health(), r.Health())
		}
		po, eo := o.Forecast()
		pr, er := r.Forecast()
		if (eo == nil) != (er == nil) {
			t.Fatalf("step %d: forecast err %v vs restored %v", i, eo, er)
		}
		if eo == nil && (po.Value != pr.Value || po.Source != pr.Source) {
			t.Fatalf("step %d: forecast %v/%s vs restored %v/%s",
				i, po.Value, po.Source, pr.Value, pr.Source)
		}
	}
}

// TestOnlineTournamentPresenceMismatch: every snapshot carries the
// tournament tier, so one without it is rejected; drift presence must
// match between snapshot and predictor.
func TestOnlineTournamentPresenceMismatch(t *testing.T) {
	plain, err := NewOnline(onlineCfg(5, 20))
	if err != nil {
		t.Fatal(err)
	}
	driftCfg := onlineCfg(5, 20)
	driftCfg.Drift = &tournament.DriftConfig{}
	withDrift, err := NewOnline(driftCfg)
	if err != nil {
		t.Fatal(err)
	}
	noTier := rewriteState(t, plain, func(s *onlineState) { s.HasTournament = false })
	if err := plain.RestoreState(bytes.NewReader(noTier)); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("snapshot without the tournament tier: err = %v, want ErrStateMismatch", err)
	}
	var buf bytes.Buffer
	if err := withDrift.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := plain.RestoreState(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("drift snapshot into plain predictor: err = %v, want ErrStateMismatch", err)
	}
	buf.Reset()
	if err := plain.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := withDrift.RestoreState(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("plain snapshot into drift predictor: err = %v, want ErrStateMismatch", err)
	}
}

// TestOnlineNilTournamentIsDefaults: a nil OnlineConfig.Tournament and the
// zero tournament.Config resolve to the same tier, so their snapshots are
// interchangeable.
func TestOnlineNilTournamentIsDefaults(t *testing.T) {
	implicit, err := NewOnline(onlineCfg(5, 20))
	if err != nil {
		t.Fatal(err)
	}
	cfg := onlineCfg(5, 20)
	cfg.Tournament = &tournament.Config{}
	explicit, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := implicit.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := explicit.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("nil-tournament snapshot into zero-config predictor: %v", err)
	}
}

// TestStepTournamentZeroAlloc extends the steady-state zero-allocation
// contract to predictd's stream configuration, tournament and drift
// detector included: both ride the existing selector fold, so they must add
// no heap traffic.
func TestStepTournamentZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	o, err := NewOnline(OnlineConfig{
		Predictor:   DefaultConfig(5),
		TrainSize:   60,
		AuditWindow: 12,
		Tournament:  &tournament.Config{},
		Drift:       &tournament.DriftConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	next := func() float64 {
		i++
		return 10 + 3*math.Sin(float64(i)/7) + 0.1*float64(i%5)
	}
	for j := 0; j < 500; j++ {
		o.Step(next())
	}
	if !o.Trained() || o.Health() != Healthy {
		t.Fatalf("warm-up did not reach trained/Healthy: trained=%v health=%v",
			o.Trained(), o.Health())
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := o.Step(next()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Step with tournament+drift allocates %v per op, want 0", allocs)
	}
}
