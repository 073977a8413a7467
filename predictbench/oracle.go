package main

import (
	"fmt"
	"math"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/tournament"
)

// The replay oracle: every predictor is deterministic, so the forecast the
// daemon serves for a stream must be bit-identical to what a single
// in-process core.Online produces from that stream's acked samples, in the
// order they were acked. The oracle records the acked sample indices of
// the checked streams and, after the run, replays them.

// newReference builds an Online with predictd's exact stream config (its
// flag defaults): window 5, train 60, audit 12, threshold 2.0, tournament
// and drift on.
func newReference() (*core.Online, error) {
	return core.NewOnline(core.OnlineConfig{
		Predictor:    core.DefaultConfig(5),
		TrainSize:    60,
		AuditWindow:  12,
		MSEThreshold: 2.0,
		Tournament:   &tournament.Config{},
		Drift:        &tournament.DriftConfig{},
	})
}

// replayed is the reference outcome of one stream.
type replayed struct {
	processed uint64
	lastValue float64
	pred      core.Prediction
	hasPred   bool
	steps     []step
}

// step is one reference step: the observation and the forecast issued at
// it (ok false while warming up or on a failed step).
type step struct {
	value float64
	pred  core.Prediction
	ok    bool
}

// replay steps a reference predictor through values. Like the daemon's
// result cache it keeps the last successful forecast.
func replay(values []float64) (replayed, error) {
	o, err := newReference()
	if err != nil {
		return replayed{}, err
	}
	r := replayed{steps: make([]step, 0, len(values))}
	for _, v := range values {
		p, _, serr := o.Step(v)
		r.processed++
		r.lastValue = v
		if serr == nil {
			r.pred, r.hasPred = p, true
		}
		r.steps = append(r.steps, step{value: v, pred: p, ok: serr == nil})
	}
	return r, nil
}

// compare reports how the served document and history ring differ from
// the replay; nil when they agree bit for bit. The ring holds the newest
// entries only, so a sample older than the ring is checked only through
// its effect on the state that follows it.
func compare(want replayed, got server.ForecastResponse, hist []server.HistoryEntry) error {
	if got.Processed != want.processed {
		return fmt.Errorf("processed %d, replay %d", got.Processed, want.processed)
	}
	if math.Float64bits(got.LastValue) != math.Float64bits(want.lastValue) {
		return fmt.Errorf("last value %v, replay %v", got.LastValue, want.lastValue)
	}
	if (got.Forecast != nil) != want.hasPred {
		return fmt.Errorf("has forecast %v, replay %v", got.Forecast != nil, want.hasPred)
	}
	if want.hasPred {
		if err := samePred(got.Forecast.Value, got.Forecast.StdEstimate, got.Forecast.Expert, want.pred); err != nil {
			return err
		}
		f, p := got.Forecast, want.pred
		switch {
		case math.Float64bits(f.Normalized) != math.Float64bits(p.Normalized):
			return fmt.Errorf("normalized %v, replay %v", f.Normalized, p.Normalized)
		case f.Source != p.Source:
			return fmt.Errorf("source %q, replay %q", f.Source, p.Source)
		}
	}
	if len(hist) == 0 || hist[len(hist)-1].Seq != want.processed {
		return fmt.Errorf("history ends before seq %d", want.processed)
	}
	for _, e := range hist {
		if e.Seq < 1 || e.Seq > uint64(len(want.steps)) {
			return fmt.Errorf("history seq %d outside replay 1..%d", e.Seq, len(want.steps))
		}
		st := want.steps[e.Seq-1]
		if math.Float64bits(e.Actual) != math.Float64bits(st.value) {
			return fmt.Errorf("history seq %d: actual %v, replay %v", e.Seq, e.Actual, st.value)
		}
		if e.HasNext != st.ok {
			return fmt.Errorf("history seq %d: has forecast %v, replay %v", e.Seq, e.HasNext, st.ok)
		}
		if st.ok {
			if err := samePred(e.Next, e.NextStd, e.NextExpert, st.pred); err != nil {
				return fmt.Errorf("history seq %d: %w", e.Seq, err)
			}
		}
	}
	return nil
}

func samePred(value, std float64, expert string, p core.Prediction) error {
	switch {
	case math.Float64bits(value) != math.Float64bits(p.Value):
		return fmt.Errorf("forecast %v, replay %v", value, p.Value)
	case math.Float64bits(std) != math.Float64bits(p.StdEstimate):
		return fmt.Errorf("std %v, replay %v", std, p.StdEstimate)
	case expert != p.SelectedName:
		return fmt.Errorf("expert %q, replay %q", expert, p.SelectedName)
	}
	return nil
}

// oracle records the acked samples of the checked streams in ack order.
type oracle struct {
	set     *streamSet
	checked []int
	isCheck map[int32]bool
	acked   map[int32][]uint32
	// sources counts the replayed forecasts by Prediction.Source, so a run
	// shows which rungs of the fallback ladder the check covered.
	sources map[string]int
}

func newOracle(set *streamSet, checked []int) *oracle {
	o := &oracle{set: set, checked: checked, isCheck: map[int32]bool{}, acked: map[int32][]uint32{}, sources: map[string]int{}}
	for _, i := range checked {
		o.isCheck[int32(i)] = true
	}
	return o
}

// record notes one phase's batches. Batches of one stream all travel on
// one connection, whose acks arrive in send order, so walking each
// connection's records in order yields each stream's apply order.
func (o *oracle) record(conns [][]*batchRec) {
	for _, recs := range conns {
		for _, r := range recs {
			if !r.ok {
				continue
			}
			for _, s := range r.samples {
				if o.isCheck[s.stream] {
					o.acked[s.stream] = append(o.acked[s.stream], s.k)
				}
			}
		}
	}
}

// ackedCount is how many samples of stream i were acked.
func (o *oracle) ackedCount(i int) uint64 { return uint64(len(o.acked[int32(i)])) }

// check replays every checked stream and compares it with the served
// documents and history rings; it returns the number of mismatching
// streams and the first difference.
func (o *oracle) check(served map[string]server.ForecastResponse, hist map[string][]server.HistoryEntry) (bad int, first, err error) {
	for _, i := range o.checked {
		ks := o.acked[int32(i)]
		vals := make([]float64, len(ks))
		for j, k := range ks {
			vals[j] = o.set.value(i, k)
		}
		want, err := replay(vals)
		if err != nil {
			return 0, nil, err
		}
		for _, st := range want.steps {
			if st.ok {
				o.sources[st.pred.Source]++
			}
		}
		id := o.set.ids[i]
		got, ok := served[id]
		var cerr error
		if !ok {
			cerr = fmt.Errorf("not served")
		} else {
			cerr = compare(want, got, hist[id])
		}
		if cerr != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("stream %s: %w", id, cerr)
			}
		}
	}
	return bad, first, nil
}
