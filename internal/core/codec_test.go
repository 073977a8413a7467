package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// codecSeries produces a deterministic, regime-switching series long enough
// to train on and keep forecasting afterwards.
func codecSeries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(i)
		out[i] = 10 + 3*math.Sin(t/5) + 0.8*math.Sin(t/1.7) + 0.3*math.Mod(t, 4)
	}
	return out
}

func TestLARSaveRestoreForecastsIdentical(t *testing.T) {
	series := codecSeries(200)
	cfg := DefaultConfig(5)
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Train(series[:120]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !restored.Trained() {
		t.Fatal("restored predictor not trained")
	}
	if restored.Normalizer() != orig.Normalizer() {
		t.Fatalf("normalizer %+v != %+v", restored.Normalizer(), orig.Normalizer())
	}
	for i := 120; i+5 < len(series); i++ {
		window := series[i : i+5]
		a, errA := orig.Forecast(window)
		b, errB := restored.Forecast(window)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("window %d: err %v vs %v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.Value != b.Value || a.Selected != b.Selected || a.StdEstimate != b.StdEstimate {
			t.Fatalf("window %d: forecast %+v != %+v", i, a, b)
		}
	}
	// The training labels (k-NN training set) round-trip too.
	la, lb := orig.TrainingLabels(), restored.TrainingLabels()
	if len(la) != len(lb) {
		t.Fatalf("label count %d != %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("label %d: %d != %d", i, la[i], lb[i])
		}
	}
}

func TestLARSaveRestoreUntrained(t *testing.T) {
	cfg := DefaultConfig(5)
	orig, _ := New(cfg)
	var buf bytes.Buffer
	if err := orig.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _ := New(cfg)
	// Pre-train the target to check restore resets it back to untrained.
	if err := restored.Train(codecSeries(100)); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Trained() {
		t.Fatal("restore of untrained state left predictor trained")
	}
	if _, err := restored.Forecast(codecSeries(5)); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("forecast after untrained restore: %v", err)
	}
}

func TestLARRestoreConfigMismatch(t *testing.T) {
	orig, _ := New(DefaultConfig(5))
	if err := orig.Train(codecSeries(120)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	other, _ := New(DefaultConfig(8)) // different window size
	if err := other.RestoreState(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("mismatched restore error = %v, want ErrStateMismatch", err)
	}
	if other.Trained() {
		t.Fatal("failed restore left predictor trained")
	}
}

func TestLARRestoreCorruptState(t *testing.T) {
	orig, _ := New(DefaultConfig(5))
	if err := orig.Train(codecSeries(120)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bit flip in the payload: checksum catches it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x10
	target, _ := New(DefaultConfig(5))
	if err := target.RestoreState(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped restore error = %v, want ErrChecksum", err)
	}

	// Wrong magic.
	wrong := append([]byte(nil), data...)
	wrong[0] = 'X'
	if err := target.RestoreState(bytes.NewReader(wrong)); !errors.Is(err, ErrBadState) {
		t.Fatalf("wrong-magic restore error = %v, want ErrBadState", err)
	}

	// Truncations at every boundary never panic and always error.
	for _, n := range []int{0, 3, 8, 10, 12, 20, len(data) - 2} {
		if err := target.RestoreState(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("restore of %d-byte prefix succeeded", n)
		}
	}
	if target.Trained() {
		t.Fatal("corrupt restores left predictor trained")
	}
}

// driveOnline feeds every value of series into a fresh Online built with cfg.
func driveOnline(t *testing.T, cfg OnlineConfig, series []float64) *Online {
	t.Helper()
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range series {
		o.Observe(v)
	}
	return o
}

func onlineTestConfig() OnlineConfig {
	return OnlineConfig{
		Predictor:    DefaultConfig(5),
		TrainSize:    40,
		AuditWindow:  8,
		MSEThreshold: 0.5,
	}
}

func TestOnlineSaveRestoreResumesIdentically(t *testing.T) {
	series := codecSeries(300)
	cfg := onlineTestConfig()

	orig := driveOnline(t, cfg, series[:150])
	var buf bytes.Buffer
	if err := orig.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !restored.Trained() {
		t.Fatal("restored online predictor not trained")
	}
	if restored.Retrains() != orig.Retrains() {
		t.Fatalf("retrains %d != %d", restored.Retrains(), orig.Retrains())
	}
	if restored.HealthStats() != orig.HealthStats() {
		t.Fatalf("health stats %+v != %+v", restored.HealthStats(), orig.HealthStats())
	}

	// Feed both the same continuation; every forecast must match exactly —
	// the restored predictor has the same model, audit ring, selector
	// statistics, and backoff schedule.
	preRetrains := orig.Retrains()
	for i, v := range series[150:] {
		ra, erra := orig.Observe(v)
		rb, errb := restored.Observe(v)
		if ra != rb || (erra == nil) != (errb == nil) {
			t.Fatalf("step %d: observe (%v,%v) vs (%v,%v)", i, ra, erra, rb, errb)
		}
		pa, errA := orig.Forecast()
		pb, errB := restored.Forecast()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("step %d: forecast err %v vs %v", i, errA, errB)
		}
		if errA == nil && (pa.Value != pb.Value || pa.Source != pb.Source || pa.SelectedName != pb.SelectedName) {
			t.Fatalf("step %d: forecast %+v != %+v", i, pa, pb)
		}
	}
	if orig.Retrains() != restored.Retrains() {
		t.Fatalf("diverged retrains after continuation: %d != %d", orig.Retrains(), restored.Retrains())
	}
	t.Logf("continuation retrains: %d (had %d at snapshot)", orig.Retrains(), preRetrains)
}

func TestOnlineSaveRestoreWarmupPhase(t *testing.T) {
	// Snapshot taken before TrainSize observations: restore must land back
	// in warm-up and train at exactly the same step as an uninterrupted run.
	series := codecSeries(120)
	cfg := onlineTestConfig()

	orig := driveOnline(t, cfg, series[:25]) // warm-up: 25 < TrainSize
	if orig.Trained() {
		t.Fatal("trained during warm-up")
	}
	var buf bytes.Buffer
	if err := orig.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _ := NewOnline(cfg)
	if err := restored.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Trained() || restored.HistoryLen() != 25 {
		t.Fatalf("restored warm-up: trained=%v history=%d", restored.Trained(), restored.HistoryLen())
	}
	for _, v := range series[25:] {
		orig.Observe(v)
		restored.Observe(v)
	}
	pa, errA := orig.Forecast()
	pb, errB := restored.Forecast()
	if errA != nil || errB != nil {
		t.Fatalf("forecast errors %v, %v", errA, errB)
	}
	if pa.Value != pb.Value {
		t.Fatalf("forecasts diverged: %g != %g", pa.Value, pb.Value)
	}
}

func TestOnlineRestoreDegradedState(t *testing.T) {
	// Break the predictor with a non-finite training window so the health
	// machinery engages, then check the whole degraded state round-trips.
	cfg := onlineTestConfig()
	o, err := NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := codecSeries(60)
	for i, v := range series {
		if i%3 == 1 {
			v = math.NaN() // poison training windows: every train fails
		}
		o.Observe(v)
	}
	hs := o.HealthStats()
	if hs.RetrainFailures == 0 {
		t.Fatal("expected retrain failures from poisoned series")
	}

	var buf bytes.Buffer
	if err := o.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _ := NewOnline(cfg)
	if err := restored.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.HealthStats() != hs {
		t.Fatalf("degraded health stats %+v != %+v", restored.HealthStats(), hs)
	}
	if restored.Health() != o.Health() {
		t.Fatalf("health %v != %v", restored.Health(), o.Health())
	}
	if (restored.LastError() == nil) != (o.LastError() == nil) {
		t.Fatalf("last error %v vs %v", restored.LastError(), o.LastError())
	}
}

func TestOnlineRestoreConfigMismatch(t *testing.T) {
	cfg := onlineTestConfig()
	o := driveOnline(t, cfg, codecSeries(100))
	var buf bytes.Buffer
	if err := o.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.AuditWindow = 9
	target, err := NewOnline(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := target.RestoreState(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("mismatched restore error = %v, want ErrStateMismatch", err)
	}
}

func TestOnlineRestoreCorrupt(t *testing.T) {
	cfg := onlineTestConfig()
	o := driveOnline(t, cfg, codecSeries(100))
	var buf bytes.Buffer
	if err := o.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	target, _ := NewOnline(cfg)
	for i := 10; i < len(data); i += 97 {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0x04
		if err := target.RestoreState(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("restore with byte %d corrupted succeeded", i)
		}
	}
	for _, n := range []int{0, 5, 11, 40, len(data) - 1} {
		if err := target.RestoreState(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("restore of %d-byte prefix succeeded", n)
		}
	}
	// After all the failed restores the target is still usable cold.
	for _, v := range codecSeries(60) {
		target.Observe(v)
	}
	if !target.Trained() {
		t.Fatal("target unusable after failed restores")
	}
}

// rewriteState decodes an Online snapshot, applies edit to its payload, and
// re-frames it with a valid checksum, so a test can hand-craft states the
// live predictor never writes.
func rewriteState(t *testing.T, o *Online, edit func(*onlineState)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	var s onlineState
	if err := readFramed(&buf, onlineStateMagic, &s); err != nil {
		t.Fatal(err)
	}
	edit(&s)
	buf.Reset()
	if err := writeFramed(&buf, onlineStateMagic, &s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOnlineRestoreRejectsRetiredHealth: health value 2 belongs to a
// retired rung; a snapshot carrying it is invalid.
func TestOnlineRestoreRejectsRetiredHealth(t *testing.T) {
	o, err := NewOnline(onlineCfg(5, 20))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{-1, 2, 5} {
		blob := rewriteState(t, o, func(s *onlineState) { s.Health = h })
		if err := o.RestoreState(bytes.NewReader(blob)); !errors.Is(err, ErrBadState) {
			t.Errorf("health %d: err = %v, want ErrBadState", h, err)
		}
	}
}

// TestOnlineRestoreRejectsShortHistory: a trained or demoted state must
// carry the TrainSize samples its next retrain slices from history.
func TestOnlineRestoreRejectsShortHistory(t *testing.T) {
	cfg := onlineTestConfig()
	o := driveOnline(t, cfg, codecSeries(100))
	edits := map[string]func(*onlineState){
		"trained": func(s *onlineState) {},
		"breaker open": func(s *onlineState) {
			s.LAR.Trained, s.BreakerOpen = false, true
		},
		"tournament rung": func(s *onlineState) {
			s.LAR.Trained, s.Health = false, int(Tournament)
		},
	}
	for name, edit := range edits {
		blob := rewriteState(t, o, func(s *onlineState) {
			edit(s)
			s.History = s.History[:cfg.TrainSize-1]
		})
		target, err := NewOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := target.RestoreState(bytes.NewReader(blob)); !errors.Is(err, ErrBadState) {
			t.Errorf("%s with short history: err = %v, want ErrBadState", name, err)
		}
	}
}
