package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/faults"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// TestOnlineHealthTransitionMetrics drives an instrumented Online through
// degradation using the PR 1 fault injectors and checks that the metrics
// registry mirrors the health state machine: every transition is counted on
// larpredictor_health_transitions_total{from,to}, and the retrain/breaker
// instruments agree with HealthStats.
func TestOnlineHealthTransitionMetrics(t *testing.T) {
	cfg := resilienceCfg()
	cfg.FailureLimit = -1 // stay demoted; terminal Failed has its own test
	reg := obs.NewRegistry()
	o, err := NewOnline(cfg, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	// A calm sinusoid poisoned by a periodic NaN burst: one NaN every ten
	// samples, so every 20-sample training window holds at least one and
	// each (re)train attempt fails — the same schedule as
	// TestOnlineFailedTrainArmsBackoff, but produced by the faults package
	// rather than by hand.
	const n = 500
	step := 5 * time.Minute
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	clean := make([]float64, n)
	for i := range clean {
		clean[i] = 10 * math.Sin(float64(i)*0.05)
	}
	poisoned, _ := faults.InjectValues(clean, vmtrace.VMID("VM1"), "CPU_usedsec", epoch, step,
		&faults.NaNBurst{Epoch: epoch, Start: 9 * step, Len: step, Period: 10 * step})

	for i, v := range poisoned {
		if _, err := o.Observe(v); err != nil {
			t.Fatalf("observation %d: %v", i, err)
		}
	}
	if got := o.Health(); got != Tournament && got != Fallback {
		t.Fatalf("health = %s after NaN bursts, want Tournament or Fallback", got)
	}
	// One lower-rung forecast so its source shows up in the family.
	if _, err := o.Forecast(); err != nil {
		t.Fatal(err)
	}

	hs := o.HealthStats()
	assertCounter := func(name string, labels []string, want uint64) {
		t.Helper()
		got := reg.Counter(name, "", labelNames(labels)...).WithLabels(labelValues(labels)...).Value()
		if got != want {
			t.Errorf("%s%v = %d, want %d", name, labels, got, want)
		}
	}
	assertCounter("larpredictor_retrain_failures_total", nil, uint64(hs.RetrainFailures))
	assertCounter("larpredictor_breaker_trips_total", nil, uint64(hs.BreakerTrips))
	assertCounter("larpredictor_health_transitions_total",
		[]string{"from", "Healthy", "to", "Tournament"}, 1)
	tourney := uint64(hs.TournamentForecasts)
	selector := uint64(hs.SelectorForecasts)
	lastResort := uint64(hs.FallbackForecasts)
	assertCounter("larpredictor_forecasts_total", []string{"source", SourceTournament}, tourney)
	assertCounter("larpredictor_forecasts_total", []string{"source", SourceSelector}, selector)
	assertCounter("larpredictor_forecasts_total", []string{"source", SourceLastResort}, lastResort)
	if tourney+selector+lastResort == 0 {
		t.Error("degraded forecast counted on neither fallback source")
	}

	if got := reg.Gauge1("larpredictor_health_state", "").Value(); got != float64(o.Health()) {
		t.Errorf("health_state gauge = %v, want %v", got, float64(o.Health()))
	}
	if got := reg.Gauge1("larpredictor_breaker_open", "").Value(); got != 1 {
		t.Errorf("breaker_open gauge = %v while the breaker is open", got)
	}

	// Recovery: a clean calm stream must close the loop with a counted
	// Tournament/Fallback -> Healthy transition.
	phase := n
	feedCalm(t, o, 300, &phase)
	if got := o.Health(); got != Healthy {
		t.Fatalf("health = %s after clean recovery stream, want Healthy", got)
	}
	vec := reg.Counter("larpredictor_health_transitions_total", "", "from", "to")
	recovered := vec.WithLabels("Tournament", "Healthy").Value() +
		vec.WithLabels("Fallback", "Healthy").Value() +
		vec.WithLabels("Fallback", "Tournament").Value()
	if recovered == 0 {
		t.Error("recovery left no transition back toward Healthy in the metrics")
	}
	if got := reg.Gauge1("larpredictor_health_state", "").Value(); got != float64(Healthy) {
		t.Errorf("health_state gauge = %v after recovery, want 0", got)
	}

	// The exposition must render the transition family with both labels.
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(),
		`larpredictor_health_transitions_total{from="Healthy",to="Tournament"} 1`) {
		t.Errorf("exposition missing the Healthy->Tournament transition:\n%s", sb.String())
	}
}

// labelNames/labelValues split a flat [name, value, name, value] list.
func labelNames(kv []string) []string {
	var out []string
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, kv[i])
	}
	return out
}

func labelValues(kv []string) []string {
	var out []string
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, kv[i+1])
	}
	return out
}
