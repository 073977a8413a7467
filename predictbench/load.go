package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// batchRec is one ingest batch as the load generator saw it.
type batchRec struct {
	samples []sample
	ts      int64     // creation stamp carried in every sample's ts
	due     time.Time // open loop: when it was scheduled; closed loop: zero
	sent    time.Time
	done    time.Time
	ok      bool
}

// source yields batch j of one connection, or nil when the connection has
// no more batches.
type source func(j int) []sample

// ingester drives one framed-wire connection. Send pipelines; the wait
// it returns blocks for the batch's ack and reports its outcome.
type ingester struct {
	set  *streamSet
	conn *wire.Conn
	src  string
	buf  []wire.Sample
}

func dialBinary(ctx context.Context, addr string, set *streamSet, window int, clientID string) (*ingester, error) {
	c, err := wire.Dial(ctx, addr, wire.ConnConfig{Window: window})
	if err != nil {
		return nil, err
	}
	return &ingester{set: set, conn: c, src: clientID}, nil
}

func (b *ingester) send(ctx context.Context, rec *batchRec) (func() (bool, time.Time), error) {
	b.buf = b.buf[:0]
	for _, s := range rec.samples {
		b.buf = append(b.buf, wire.Sample{Stream: b.set.ids[s.stream], TS: rec.ts, Value: s.value, Seq: uint64(s.k) + 1})
	}
	p, err := b.conn.Send(ctx, b.src, b.buf)
	if err != nil {
		return nil, err
	}
	want := len(rec.samples)
	return func() (bool, time.Time) {
		ack, err := p.Wait(ctx)
		return err == nil && ack.Status == wire.StatusOK && ack.Accepted == want, time.Now()
	}, nil
}

func (b *ingester) close() { b.conn.Close() }

// pending is a sent batch awaiting its ack.
type pending struct {
	rec  *batchRec
	wait func() (bool, time.Time)
}

// drive runs one connection: it sends every batch src yields, at the
// schedule's due times when sched is non-nil (open loop) or as fast as the
// in-flight window allows (closed loop), and collects acks in order.
func drive(ctx context.Context, ing *ingester, src source, sched *schedule, window int) ([]*batchRec, error) {
	inflight := make(chan pending, window)
	var recs []*batchRec
	var sendErr error
	go func() {
		defer close(inflight)
		for j := 0; ; j++ {
			var due time.Time
			if sched != nil {
				due = sched.due(j)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						sendErr = ctx.Err()
						return
					}
				}
			}
			smp := src(j)
			if smp == nil {
				return
			}
			now := time.Now()
			rec := &batchRec{samples: smp, ts: now.UnixNano(), due: due, sent: now}
			wait, err := ing.send(ctx, rec)
			if err != nil {
				sendErr = err
				return
			}
			select {
			case inflight <- pending{rec, wait}:
			case <-ctx.Done():
				sendErr = ctx.Err()
				return
			}
		}
	}()
	for p := range inflight {
		p.rec.ok, p.rec.done = p.wait()
		recs = append(recs, p.rec)
	}
	return recs, sendErr
}

// driveAll runs one drive per ingester concurrently and returns every
// connection's records.
func driveAll(ctx context.Context, ings []*ingester, srcs []source, sched *schedule, window int) ([][]*batchRec, error) {
	out := make([][]*batchRec, len(ings))
	errs := make([]error, len(ings))
	var wg sync.WaitGroup
	for c := range ings {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c], errs[c] = drive(ctx, ings[c], srcs[c], sched, window)
		}(c)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// sliceSource serves pre-generated samples in fixed-size batches.
func sliceSource(all []sample, batch int) source {
	return func(j int) []sample {
		lo := j * batch
		if lo >= len(all) {
			return nil
		}
		return all[lo:min(lo+batch, len(all))]
	}
}

// drawSource draws batches of size batch from d, n batches in all.
func drawSource(d *drawer, batch, n int) source {
	return func(j int) []sample {
		if j >= n {
			return nil
		}
		return d.fill(nil, batch)
	}
}

// ---- SSE subscriber ----

// sseEvent is one received forecast event.
type sseEvent struct {
	stream string
	ts     int64
	at     time.Time
}

// subscriber holds one /v1/subscribe stream open and records every event.
type subscriber struct {
	mu     sync.Mutex
	events []sseEvent
	cancel context.CancelFunc
	done   chan struct{}
}

// subscribe opens the feed for ids, resuming after each stream's seq in
// from so the ring's backfill is skipped.
func subscribe(ctx context.Context, hc *http.Client, d *daemon, ids []string, from map[string]uint64) (*subscriber, error) {
	pos := make([]string, 0, len(ids))
	for _, id := range ids {
		pos = append(pos, id+"@"+strconv.FormatUint(from[id], 10))
	}
	sort.Strings(pos)
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		d.url("/v1/subscribe?streams="+url.QueryEscape(strings.Join(ids, ","))), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Last-Event-ID", strings.Join(pos, ","))
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		var ev struct {
			Stream string `json:"stream"`
			TS     int64  `json:"ts"`
		}
		for {
			// A broken stream ends the reader; the events it did not
			// deliver count as failures.
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			data, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			at := time.Now()
			if err := json.Unmarshal(data, &ev); err != nil {
				return
			}
			s.mu.Lock()
			s.events = append(s.events, sseEvent{ev.Stream, ev.TS, at})
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// count is how many events with ts >= since have arrived.
func (s *subscriber) count(since int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.ts >= since {
			n++
		}
	}
	return n
}

// close ends the subscription and waits for its reader to exit.
func (s *subscriber) close() []sseEvent {
	s.cancel()
	<-s.done
	return s.events
}

// ---- reads ----

// readStats is the reader's outcome.
type readStats struct {
	lat     series // ms per completed read, at its start
	failed  int
	bulk    int
	bulk304 int
}

// Read kinds, named after the daemon's endpoint metric labels.
const (
	readForecast = "forecast"
	readBulk     = "forecasts"
	readHistory  = "history"
)

// reader issues the read mix against the daemon: single forecasts, bulk
// forecasts of 100 streams (half conditional on the set's last ETag), and
// history ranges, choosing streams by Zipf popularity.
type reader struct {
	base  string // http://host:port of the server
	hc    *http.Client
	set   *streamSet
	z     *zipf
	sets  [][]string // the pool of bulk stream sets
	etags []string
	buf   bytes.Buffer
	n     int // reads issued
}

func newReader(base string, hc *http.Client, set *streamSet, seed uint64) *reader {
	r := &reader{
		base: base,
		hc:   hc,
		set:  set,
		z:    newZipf(set.len(), 1.1, seed, 0x72656164),
	}
	for i := 0; i < 16; i++ {
		seen := map[int]bool{}
		var ids []string
		for len(ids) < 100 && len(ids) < set.len() {
			if s := r.z.next(); !seen[s] {
				seen[s] = true
				ids = append(ids, set.ids[s])
			}
		}
		r.sets = append(r.sets, ids)
	}
	r.etags = make([]string, len(r.sets))
	return r
}

// one issues a single read chosen by the mix and reports its latency and
// whether the response was valid.
func (r *reader) one(ctx context.Context, st *readStats) {
	op := r.z.rng.IntN(10)
	var path, want, ifNone string
	setIdx := -1
	switch {
	case op < 6:
		want = r.set.ids[r.z.next()]
		path = "/v1/forecast/" + want
	case op < 8:
		setIdx = r.z.rng.IntN(len(r.sets))
		path = "/v1/forecasts?streams=" + strings.Join(r.sets[setIdx], ",")
		if r.z.rng.IntN(2) == 0 {
			ifNone = r.etags[setIdx]
		}
		st.bulk++
	default:
		want = r.set.ids[r.z.next()]
		path = "/v1/forecast/" + want + "/history?limit=64"
	}
	start := time.Now()
	code, etag, err := r.fetch(ctx, path, ifNone)
	st.lat.xs = append(st.lat.xs, obs{start, ms(time.Since(start))})
	r.n++
	if err != nil || !r.valid(code, path, ifNone, want, setIdx, r.n%validateEvery == 0) {
		st.failed++
		return
	}
	if setIdx >= 0 {
		r.etags[setIdx] = etag
		if code == http.StatusNotModified {
			st.bulk304++
		}
	}
}

// validateEvery sets how often a read's body is decoded and checked in
// full; the others are checked by status and length. Decoding every body
// would make the harness, not the server, the reader's bottleneck.
const validateEvery = 4

// fetch issues one GET and reads the whole body into r.buf; the read's
// latency ends here, before any validation.
func (r *reader) fetch(ctx context.Context, path, ifNone string) (code int, etag string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return 0, "", err
	}
	if ifNone != "" {
		req.Header.Set("If-None-Match", ifNone)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	r.buf.Reset()
	if _, err := r.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("ETag"), nil
}

// valid checks a fetched response: a 304 only for a conditional bulk read,
// otherwise a 200 with a body, decoded and checked against the request
// when full is set.
func (r *reader) valid(code int, path, ifNone, want string, setIdx int, full bool) bool {
	switch {
	case code == http.StatusNotModified:
		return setIdx >= 0 && ifNone != ""
	case code != http.StatusOK || r.buf.Len() == 0:
		return false
	case !full:
		return true
	case setIdx >= 0:
		var doc server.BulkForecastsResponse
		if json.Unmarshal(r.buf.Bytes(), &doc) != nil || len(doc.Streams) != len(r.sets[setIdx]) {
			return false
		}
		for i, s := range doc.Streams {
			if s.Stream != r.sets[setIdx][i] || s.Forecast == nil {
				return false
			}
		}
	case strings.HasSuffix(path, "?limit=64"):
		var doc server.HistoryResponse
		if json.Unmarshal(r.buf.Bytes(), &doc) != nil || doc.Stream != want || len(doc.Entries) == 0 {
			return false
		}
	default:
		var doc server.ForecastResponse
		if json.Unmarshal(r.buf.Bytes(), &doc) != nil || doc.Stream != want || doc.Forecast == nil {
			return false
		}
	}
	return true
}

// readFor runs the closed-loop reader until the deadline passes.
func (r *reader) readFor(ctx context.Context, d time.Duration) readStats {
	var st readStats
	st.lat.from = time.Now()
	for time.Since(st.lat.from) < d && ctx.Err() == nil {
		r.one(ctx, &st)
	}
	st.lat.d = time.Since(st.lat.from)
	return st
}

// readN runs the closed-loop reader for n reads.
func (r *reader) readN(ctx context.Context, n int) readStats {
	var st readStats
	st.lat.from = time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		r.one(ctx, &st)
	}
	st.lat.d = time.Since(st.lat.from)
	return st
}

// ---- daemon state polls ----

// forecasts pages through /v1/forecasts and returns every stream's
// document.
func forecasts(ctx context.Context, hc *http.Client, d *daemon) (map[string]server.ForecastResponse, error) {
	out := map[string]server.ForecastResponse{}
	cursor := ""
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			d.url("/v1/forecasts?limit=1000&cursor="+url.QueryEscape(cursor)), nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		var doc server.BulkForecastsResponse
		err = json.NewDecoder(resp.Body).Decode(&doc)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("forecasts page: %w", err)
		}
		for _, s := range doc.Streams {
			out[s.Stream] = s
		}
		if doc.NextCursor == "" {
			return out, nil
		}
		cursor = doc.NextCursor
	}
}

// bulkForecasts fetches the named streams' documents in one request.
func bulkForecasts(ctx context.Context, hc *http.Client, d *daemon, ids []string) (map[string]server.ForecastResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		d.url("/v1/forecasts?streams="+url.QueryEscape(strings.Join(ids, ","))), nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bulk forecasts: status %d", resp.StatusCode)
	}
	var doc server.BulkForecastsResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	out := make(map[string]server.ForecastResponse, len(doc.Streams))
	for _, s := range doc.Streams {
		out[s.Stream] = s
	}
	return out, nil
}

// history fetches a stream's raw history ring, oldest first.
func history(ctx context.Context, hc *http.Client, d *daemon, id string) ([]server.HistoryEntry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/v1/forecast/"+id+"/history"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("history %s: status %d", id, resp.StatusCode)
	}
	var doc server.HistoryResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("history %s: %w", id, err)
	}
	return doc.Entries, nil
}
