package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/faults"
	"github.com/acis-lab/larpredictor/internal/tournament"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// forecastPinDigest is the FNV-64a digest of every Step outcome in
// forecastPinRun. It pins the served forecasts bit for bit: a refactor of
// the ladder, the selectors or the codec that changes any served value,
// source, expert, uncertainty estimate or health rung changes the digest.
// Update it only for a deliberate behaviour change, and say why.
const forecastPinDigest uint64 = 0xc890f60373d0c86b

// forecastPinSpec poisons a 30-minute window every eight hours, so the
// pinned run crosses the LAR, tournament and last-resort rungs.
const forecastPinSpec = "nanburst:len=30m,at=6h,period=8h"

// forecastPinRun steps predictd's stream configuration (window 5, train 60,
// audit 12, threshold 2.0, tournament and drift at package defaults) over
// every VM2 and VM3 trace of the seed-2007 standard set under
// forecastPinSpec. It returns the digest of all Step outcomes and the
// number of forecasts served per source.
func forecastPinRun(t *testing.T) (uint64, map[string]int) {
	t.Helper()
	ts := vmtrace.StandardTraceSet(2007)
	epoch := time.Date(2006, 10, 2, 0, 0, 0, 0, time.UTC)
	injs, err := faults.ParseSpec(forecastPinSpec, 2007, epoch)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	sources := map[string]int{}
	for _, vm := range []vmtrace.VMID{vmtrace.VM2, vmtrace.VM3} {
		for _, metric := range vmtrace.Metrics() {
			s, err := ts.Get(vm, metric)
			if err != nil {
				t.Fatal(err)
			}
			values, _ := faults.InjectValues(s.Values, vm, metric, epoch, 5*time.Minute, injs...)
			o, err := NewOnline(OnlineConfig{
				Predictor:    DefaultConfig(5),
				TrainSize:    60,
				AuditWindow:  12,
				MSEThreshold: 2.0,
				Tournament:   &tournament.Config{},
				Drift:        &tournament.DriftConfig{},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range values {
				p, health, err := o.Step(v)
				word(uint64(health))
				if err != nil {
					word(math.MaxUint64)
					continue
				}
				sources[p.Source]++
				word(math.Float64bits(p.Value))
				h.Write([]byte(p.Source))
				word(uint64(p.Selected))
				word(math.Float64bits(p.StdEstimate))
			}
		}
	}
	return h.Sum64(), sources
}

// TestForecastPin holds the served forecasts of predictd's configuration
// bit-identical to forecastPinDigest, the determinism promise every
// snapshot, WAL replay and handoff relies on.
func TestForecastPin(t *testing.T) {
	got, sources := forecastPinRun(t)
	for _, src := range []string{SourceLAR, SourceTournament, SourceLastResort} {
		if sources[src] == 0 {
			t.Errorf("no %s forecast in the pinned run (sources %v)", src, sources)
		}
	}
	if got != forecastPinDigest {
		t.Errorf("forecast digest %#x, pinned %#x (sources %v)", got, forecastPinDigest, sources)
	}
}
