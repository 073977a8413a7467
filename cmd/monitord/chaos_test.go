package main

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// chaosSpec injects spikes, dropouts, and NaN bursts into VM3's streams
// while VM2 stays clean. The spiked streams keep retraining at the minimum
// QA spacing — thrash — until the circuit breaker opens and the pipelines
// degrade to the tournament rung. The spike rate matters: retraining on
// spiky history inflates the normalizer's scale, which mutes rare huge
// spikes in the audit, so frequent moderate spikes (p=0.1/minute) are what
// keep the normalized audit MSE above threshold after every retrain.
const chaosSpec = "spike:p=0.10,mag=20,add=10,on=VM3/CPU_usedsec|VM3/NIC1_received;" +
	"dropout:p=0.06,on=VM3/VD1_read;" +
	"spike:p=0.10,mag=20,add=10,on=VM3/VD1_read|VM3/VD1_write;" +
	"nanburst:period=5h,len=50m,on=VM3/VD1_write"

var spikedKeys = []string{
	"VM3/CPU/CPU_usedsec",
	"VM3/NIC1/NIC1_received",
	"VM3/VD1/VD1_read",
	"VM3/VD1/VD1_write",
}

func chaosOptions() options {
	o := baseOptions(vmtrace.VM2, vmtrace.VM3)
	o.duration = 36 * time.Hour
	o.quiet = true
	// Tighter QA than the daemon default: the audit must notice moderate
	// spikes even after the normalizer has been refit on faulty history.
	o.threshold = 1.0
	return o
}

// TestChaosPipelineResilience drives the full daemon through injected
// dropouts, NaN bursts, and value spikes on four VM3 streams and asserts
// the resilience contract: the run completes, faulty streams degrade
// (never silently Healthy) with bounded retrain attempts, and clean
// streams forecast exactly as well as on a fault-free run.
func TestChaosPipelineResilience(t *testing.T) {
	clean, err := run(io.Discard, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}

	o := chaosOptions()
	o.faultSpec = chaosSpec
	o.faultSeed = 99
	faulty, err := run(io.Discard, o)
	if err != nil {
		t.Fatalf("chaos run did not complete: %v", err)
	}

	// Consolidated observations per stream over the run: one per 5 minutes.
	observations := int(o.duration / (5 * time.Minute))

	for _, key := range spikedKeys {
		p := faulty.pipe(key)
		if p == nil {
			t.Fatalf("no status for %s", key)
		}
		// Never silently Healthy: the faulted stream must surface its
		// trouble — a degraded end state and a tripped breaker.
		if p.Health != core.Tournament.String() && p.Health != core.Fallback.String() {
			t.Errorf("%s: health %s, want Tournament or Fallback", key, p.Health)
		}
		if p.BreakerTrips == 0 {
			t.Errorf("%s: breaker never tripped under sustained faults", key)
		}
		if p.DegradedForecasts == 0 {
			t.Errorf("%s: no degraded-mode forecasts served", key)
		}
		// Bounded retraining: the QA can fire at most every
		// max(MinRetrainSpacing, AuditWindow) observations, and the
		// breaker must keep the attempt count far below even that.
		attempts := p.Retrains + p.RetrainFailures
		if limit := observations / o.auditWin; attempts > limit/2 {
			t.Errorf("%s: %d retrain attempts (> %d): retry loop not bounded",
				key, attempts, limit/2)
		}
		// The pipeline must not be wedged: forecasts kept flowing. (The
		// NaN-burst stream legitimately misses rows while whole
		// consolidation intervals are unknown, so the bar is a third of
		// the observations, not all of them.)
		if p.Predictions < observations/3 {
			t.Errorf("%s: only %d predictions over %d observations — pipeline wedged",
				key, p.Predictions, observations)
		}
	}

	// Clean VM2 streams: same health and forecast quality as the
	// fault-free reference run (the fault schedule must not leak).
	for _, p := range faulty.Pipes {
		if !strings.HasPrefix(p.Key, "VM2/") {
			continue
		}
		if p.Health != core.Healthy.String() {
			t.Errorf("%s: health %s on a clean stream", p.Key, p.Health)
		}
		ref := clean.pipe(p.Key)
		if ref == nil || ref.Scored == 0 {
			continue
		}
		if p.Scored == 0 {
			t.Errorf("%s: no scored predictions under chaos", p.Key)
			continue
		}
		diff := math.Abs(p.ScoredMSE-ref.ScoredMSE) / ref.ScoredMSE
		if diff > 0.10 {
			t.Errorf("%s: MSE %.4g vs fault-free %.4g (%.1f%% apart)",
				p.Key, p.ScoredMSE, ref.ScoredMSE, 100*diff)
		}
	}

	// No supervisor incidents: faults degrade pipelines, they must not
	// crash them.
	for _, p := range faulty.Pipes {
		if p.Panics != 0 {
			t.Errorf("%s: %d panics under fault injection", p.Key, p.Panics)
		}
	}
}

// TestChaosSummaryReportsDegradation checks the operator-facing text report
// calls out the degraded pipelines.
func TestChaosSummaryReportsDegradation(t *testing.T) {
	o := chaosOptions()
	o.duration = 24 * time.Hour
	o.faultSpec = chaosSpec
	o.faultSeed = 99
	var buf strings.Builder
	if _, err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pipelines with incidents") {
		t.Errorf("summary does not surface incidents:\n%s", out)
	}
	if !strings.Contains(out, core.Tournament.String()) {
		t.Errorf("summary never labels a pipeline Tournament:\n%s", out)
	}
}
