package main

import (
	"math"
	"strings"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// served renders a replay as the daemon's forecast document.
func served(id string, r replayed) server.ForecastResponse {
	doc := server.ForecastResponse{Stream: id, Processed: r.processed, LastValue: r.lastValue}
	if r.hasPred {
		doc.Forecast = &server.ForecastDoc{
			Value:       r.pred.Value,
			Normalized:  r.pred.Normalized,
			Expert:      r.pred.SelectedName,
			StdEstimate: r.pred.StdEstimate,
			Source:      r.pred.Source,
		}
	}
	return doc
}

// servedHistory is the history ring a daemon that applied r's samples
// would serve.
func servedHistory(t *testing.T, id string, r replayed) []server.HistoryEntry {
	t.Helper()
	h, err := server.NewHistoryStore(server.HistoryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range r.steps {
		res := engine.Result{Sample: engine.Sample{ID: id, Value: st.value}, Pred: st.pred}
		if !st.ok {
			res.Err = core.ErrNotReady
		}
		h.Record(res)
	}
	rr, _ := h.Range(id, server.RangeQuery{})
	return rr.Entries
}

// serve replays each checked stream's first n values (with an optional
// change to one value) and returns what a daemon would serve for them.
func serve(t *testing.T, set *streamSet, checked []int, n int, change func(i int, vals []float64)) (map[string]server.ForecastResponse, map[string][]server.HistoryEntry) {
	t.Helper()
	docs := map[string]server.ForecastResponse{}
	hist := map[string][]server.HistoryEntry{}
	for _, i := range checked {
		vals := make([]float64, n)
		for k := range vals {
			vals[k] = set.value(i, uint32(k))
		}
		if change != nil {
			change(i, vals)
		}
		r, err := replay(vals)
		if err != nil {
			t.Fatal(err)
		}
		docs[set.ids[i]] = served(set.ids[i], r)
		hist[set.ids[i]] = servedHistory(t, set.ids[i], r)
	}
	return docs, hist
}

// ackedRun records n samples of each checked stream as one acked batch
// per round.
func ackedRun(set *streamSet, checked []int, n int) *oracle {
	o := newOracle(set, checked)
	var recs []*batchRec
	for k := 0; k < n; k++ {
		b := &batchRec{ok: true}
		for _, i := range checked {
			b.samples = append(b.samples, sample{stream: int32(i), k: uint32(k), value: set.value(i, uint32(k))})
		}
		recs = append(recs, b)
	}
	o.record([][]*batchRec{recs})
	return o
}

func TestOracleAcceptsAFaithfulServer(t *testing.T) {
	set := newStreamSet(11, 8)
	checked := []int{1, 4, 6}
	o := ackedRun(set, checked, 150)
	docs, hist := serve(t, set, checked, 150, nil)
	for _, d := range docs {
		if d.Forecast == nil {
			t.Fatal("150 samples did not train a stream")
		}
	}
	if bad, first, err := o.check(docs, hist); err != nil || bad != 0 {
		t.Fatalf("%d mismatches on a faithful server: %v %v", bad, first, err)
	}
}

// TestOracleCatchesOneFlippedSample: a server that applied one sample with
// a single flipped bit must be caught, wherever the sample sits.
func TestOracleCatchesOneFlippedSample(t *testing.T) {
	set := newStreamSet(11, 8)
	checked := []int{1, 4, 6}
	o := ackedRun(set, checked, 150)
	for _, flipAt := range []int{0, 10, 75, 149} {
		docs, hist := serve(t, set, checked, 150, func(i int, vals []float64) {
			if i == 4 {
				vals[flipAt] = math.Float64frombits(math.Float64bits(vals[flipAt]) ^ 1)
			}
		})
		bad, first, err := o.check(docs, hist)
		if err != nil || bad != 1 || first == nil || !strings.Contains(first.Error(), set.ids[4]) {
			t.Errorf("flip at %d: %d mismatches (%v, %v), want exactly stream %s", flipAt, bad, first, err, set.ids[4])
		}
	}
}

func TestOracleCatchesLostAndUnservedSamples(t *testing.T) {
	set := newStreamSet(11, 8)
	o := ackedRun(set, []int{2}, 120)
	docs, hist := serve(t, set, []int{2}, 119, nil) // the server lost the last acked sample
	if bad, _, _ := o.check(docs, hist); bad != 1 {
		t.Errorf("lost sample: %d mismatches, want 1", bad)
	}
	if bad, _, _ := o.check(map[string]server.ForecastResponse{}, nil); bad != 1 {
		t.Errorf("unserved stream: %d mismatches, want 1", bad)
	}
	docs, _ = serve(t, set, []int{2}, 120, nil)
	if bad, _, _ := o.check(docs, nil); bad != 1 {
		t.Errorf("missing history: %d mismatches, want 1", bad)
	}
}

func TestOracleSkipsRefusedBatches(t *testing.T) {
	set := newStreamSet(11, 4)
	o := newOracle(set, []int{0})
	o.record([][]*batchRec{{
		{ok: true, samples: []sample{{stream: 0, k: 0}}},
		{ok: false, samples: []sample{{stream: 0, k: 1}}},
		{ok: true, samples: []sample{{stream: 0, k: 2}, {stream: 1, k: 0}}},
	}})
	if got := o.acked[0]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("acked ks %v, want [0 2]", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 0, parent: -1, name: "outer", start: 0, end: 100},
		{id: 1, parent: 0, name: "a", start: 10, end: 30},
		{id: 2, parent: 0, name: "b", start: 20, end: 50},  // overlaps a
		{id: 3, parent: 0, name: "c", start: 90, end: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self["outer"] != 50 { // 100 - [10,50) - [90,100)
		t.Errorf("outer self %v, want 50", self["outer"])
	}
	if self["a"] != 20 || self["b"] != 30 || self["c"] != 30 {
		t.Errorf("leaf self times %v", self)
	}
}

func TestParseProm(t *testing.T) {
	sc, err := parseProm(strings.NewReader(`# HELP x y
predictd_wire_acks_total{status="ok"} 12
predictd_wire_acks_total{status="retry"} 3
predictd_wal_appends_total 7
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.sum("predictd_wire_acks_total"); got != 15 {
		t.Errorf("sum = %v, want 15", got)
	}
	if got := sc.sum("predictd_wire_acks_total", `status="ok"`); got != 12 {
		t.Errorf("ok = %v, want 12", got)
	}
	if got := sc.sum("predictd_wal_appends_total"); got != 7 {
		t.Errorf("appends = %v, want 7", got)
	}
}

// The generated traffic must drive the predictor off its LAR happy path:
// QA retrains and tournament-rung forecasts, which the oracle then checks.
func TestTrafficExercisesRetrainsAndTournament(t *testing.T) {
	set := newStreamSet(1, 1000)
	retrains, steps := 0, 0
	sources := map[string]int{}
	for i := 0; i < set.len(); i++ {
		o, err := newReference()
		if err != nil {
			t.Fatal(err)
		}
		for k := uint32(0); k < 900; k++ {
			p, _, err := o.Step(set.value(i, k))
			if err == nil {
				steps++
				sources[p.Source]++
			}
		}
		retrains += o.Retrains()
	}
	t.Logf("%d streams: %d retrains, forecasts by source %v of %d", set.len(), retrains, sources, steps)
	if retrains == 0 {
		t.Error("no QA retrain")
	}
	if sources[core.SourceTournament] == 0 {
		t.Error("no tournament-rung forecast")
	}
}
