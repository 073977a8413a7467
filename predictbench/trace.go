package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// The traced run. It has two parts, both on the workload's generated
// inputs:
//
//  1. The daemon part: one set-up and the same measured phases as the
//     untraced run, with /metrics scraped before and after (and every
//     100 ms for the queue-depth peak). Scrape deltas give counts at the
//     layer boundaries inside the daemon.
//  2. The in-process part: the benchmark composes the public layer APIs
//     (wire, durable, server, engine, core) the way predictd does, and
//     times every call it makes into a layer. Spans stay in memory and are
//     written out at the end; each layer's self time is its span time
//     minus the time its child spans cover.
//
// The in-process pipeline runs twice, once with timing off and once with
// it on; the difference is the tracing overhead.

// Layer-span names.
const (
	spWireDecode  = "wire.decode"
	spIngestKeyed = "server.ingest_keyed"
	spDedup       = "server.dedup"
	spWALAppend   = "durable.append"
	spWALSync     = "durable.sync"
	spEnqueue     = "engine.ingest_batch"
	spQueueWait   = "engine.queue_wait"
	spStep        = "core.step"
	spOnResult    = "engine.on_result"
	spCache       = "server.cache_record"
	spHistory     = "server.history_record"
	spClientOpen  = "client.open_batch"
	spClientClose = "client.closed_batch"
)

// span is one timed call. Times are nanoseconds since the tracer's origin.
type span struct {
	id, parent int32 // parent -1: a root
	name       string
	batch      int32
	start, end int64
}

// tracer keeps spans in memory. It is used from one goroutine; spans
// from engine workers are built after the engine drains.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// reserve allocates a span id whose times are filled in later, so
// children recorded first can name their parent.
func (t *tracer) reserve(name string, parent, batch int32) int32 {
	t.spans = append(t.spans, span{id: int32(len(t.spans)), parent: parent, name: name, batch: batch})
	return int32(len(t.spans) - 1)
}

func (t *tracer) set(id int32, start, end int64) { t.spans[id].start, t.spans[id].end = start, end }

func (t *tracer) add(name string, parent, batch int32, start, end int64) int32 {
	id := t.reserve(name, parent, batch)
	t.set(id, start, end)
	return id
}

// selfTimes sums, per span name, the span durations minus the part of
// each span's interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		// Children of one parent may overlap (queue wait and step of
		// different samples); merge their intervals before subtracting.
		var iv [][2]int64
		for _, c := range children[s.id] {
			cs := spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var curLo, curHi int64 = -1, -1
		for _, x := range iv {
			if x[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[s.name] += time.Duration(s.end - s.start - covered)
	}
	return out
}

// writeSpans writes spans as tab-separated lines:
// id, parent, name, batch, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tbatch\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.batch, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- the in-process stack ----

// stack is predictd's composition rebuilt from the public layer APIs:
// engine with result cache and history store on OnResult, a server in
// front, and — in WAL mode — dedup, batch WAL append and fsync on the
// ingest path before the engine enqueue.
type stack struct {
	eng    *engine.Engine
	cache  *server.ResultCache
	hist   *server.HistoryStore
	srv    *server.Server
	dedup  *server.Dedup
	wal    *durable.BatchWAL
	shards int

	tr *tracer // nil: untraced

	// Written by shard workers for measured samples (ts >= 0 is the
	// sample's index); read after Drain.
	lastHook []int64 // per shard: when StepHook last ran
	hookAt   []int64
	resultAt []int64
	cacheEnd []int64
	histEnd  []int64

	// Written by the ingest goroutine: when each batch's IngestBatch
	// returned, and the span that enclosed it.
	cur      int32 // batch in flight
	curSpan  int32
	retAt    []int64
	keyedOf  []int32
	walBuf   []byte
	plainBuf []engine.Sample
}

// shardOf is the engine's shard hash (FNV-1a over the stream ID), so a
// sample's StepHook and OnResult meet in the same per-shard slot.
func (s *stack) shardOf(id string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % uint64(s.shards))
}

// newStack builds the composition; walPath "" leaves out the WAL commit
// path (snapshot mode). samples and batches size the timing arrays.
func newStack(walPath string, tr *tracer, samples, batches int) (*stack, error) {
	s := &stack{shards: runtime.GOMAXPROCS(0), tr: tr, cur: -1, curSpan: -1}
	var err error
	s.hist, err = server.NewHistoryStore(server.HistoryConfig{})
	if err != nil {
		return nil, err
	}
	s.cache = server.NewResultCache()
	cfg := engine.Config{
		Shards:    s.shards,
		NewStream: func(string) (*core.Online, error) { return newReference() },
		OnResult: func(r engine.Result) {
			s.cache.Record(r)
			s.hist.Record(r)
		},
	}
	if tr != nil {
		s.lastHook = make([]int64, s.shards)
		s.hookAt = make([]int64, samples)
		s.resultAt = make([]int64, samples)
		s.cacheEnd = make([]int64, samples)
		s.histEnd = make([]int64, samples)
		s.retAt = make([]int64, batches)
		s.keyedOf = make([]int32, batches)
		cfg.StepHook = func(id string) { s.lastHook[s.shardOf(id)] = tr.now() }
		cfg.OnResult = func(r engine.Result) {
			if r.TS < 0 {
				s.cache.Record(r)
				s.hist.Record(r)
				return
			}
			t0 := tr.now()
			s.cache.Record(r)
			t1 := tr.now()
			s.hist.Record(r)
			t2 := tr.now()
			i := r.TS
			s.hookAt[i], s.resultAt[i], s.cacheEnd[i], s.histEnd[i] = s.lastHook[s.shardOf(r.ID)], t0, t1, t2
		}
	}
	if s.eng, err = engine.New(cfg); err != nil {
		return nil, err
	}
	scfg := server.Config{Engine: s.eng, Cache: s.cache, History: s.hist, Ingest: s.ingest}
	if walPath != "" {
		s.dedup = server.NewDedup()
		if s.wal, _, _, err = durable.OpenBatchWAL(walPath); err != nil {
			s.eng.Close()
			return nil, err
		}
	}
	if s.srv, err = server.New(scfg); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	s.eng.Close()
	if s.wal != nil {
		s.wal.Close()
	}
}

// ingest is the server's Ingest hook: predictd's WAL commit path (dedup,
// append, fsync, enqueue) in WAL mode, a plain enqueue otherwise.
func (s *stack) ingest(batch []server.KeyedSample) (accepted, deduped int, err error) {
	tr := s.tr
	var t int64
	if tr != nil {
		t = tr.now()
	}
	plain := s.plainBuf[:0]
	if s.dedup != nil {
		for _, ks := range batch {
			if !s.dedup.Apply(ks.ID, ks.Source, ks.Seq) {
				deduped++
				continue
			}
			plain = append(plain, ks.Sample)
		}
		if tr != nil {
			t = s.child(spDedup, t)
		}
		s.walBuf = encodeWALish(s.walBuf[:0], batch)
		if err := s.wal.Append(s.walBuf); err != nil {
			return 0, deduped, err
		}
		if tr != nil {
			t = s.child(spWALAppend, t)
		}
		if err := s.wal.Sync(); err != nil {
			return 0, deduped, err
		}
		if tr != nil {
			t = s.child(spWALSync, t)
		}
	} else {
		for _, ks := range batch {
			plain = append(plain, ks.Sample)
		}
	}
	s.plainBuf = plain
	accepted, err = s.eng.IngestBatch(plain)
	if tr != nil {
		end := s.child(spEnqueue, t)
		if s.cur >= 0 {
			s.retAt[s.cur] = end
		}
	}
	return accepted, deduped, err
}

// child records a span under the current batch's enclosing span, from
// start to now, and returns now.
func (s *stack) child(name string, start int64) int64 {
	end := s.tr.now()
	s.tr.add(name, s.curSpan, s.cur, start, end)
	return end
}

// encodeWALish frames a batch the way predictd's WAL record does: stream,
// ts, value bits, source and seq per sample.
func encodeWALish(dst []byte, batch []server.KeyedSample) []byte {
	var e wire.Encoder
	ws := make([]wire.Sample, len(batch))
	for i, ks := range batch {
		ws[i] = wire.Sample{Stream: ks.ID, TS: ks.TS, Value: ks.Value, Seq: ks.Seq}
	}
	src := ""
	if len(batch) > 0 {
		src = batch[0].Source
	}
	return e.AppendBatch(dst, 0, src, ws)
}

// warm feeds the warm-up samples straight into the engine (ts -1: not
// timed) and drains it.
func (s *stack) warm(set *streamSet, samples []sample) error {
	buf := make([]engine.Sample, 0, warmBatch)
	for lo := 0; lo < len(samples); lo += warmBatch {
		buf = buf[:0]
		for _, x := range samples[lo:min(lo+warmBatch, len(samples))] {
			buf = append(buf, engine.Sample{ID: set.ids[x.stream], TS: -1, Value: x.value})
		}
		if _, err := s.eng.IngestBatch(buf); err != nil {
			return err
		}
	}
	s.eng.Drain()
	return nil
}

// inproc holds the generated inputs of the in-process part.
type inproc struct {
	wl      workload
	set     *streamSet
	warm    []sample
	batches [][]sample // measured batches; sample index = position overall
	extra   [][]sample // for the HTTP/JSON ingest mini pass
	dir     string
}

func newInproc(wl workload, e env) *inproc {
	set := newStreamSet(e.seed, wl.streams)
	next := make([]uint32, set.len())
	p := &inproc{wl: wl, set: set, dir: e.work}
	p.warm = warmup(set, max(wl.warm, steadyPerStream), next)
	all := make([]int, set.len())
	for i := range all {
		all[i] = i
	}
	d := newDrawer(set, all, next, 0x696e70)
	for b := 0; b < inprocBatches; b++ {
		p.batches = append(p.batches, d.fill(nil, wl.batch))
	}
	for b := 0; b < miniBatches; b++ {
		p.extra = append(p.extra, d.fill(nil, wl.batch))
	}
	return p
}

// In-process sizes: enough batches for a p99 with ten beyond it.
const (
	inprocBatches = 1000
	miniBatches   = 500
	readsInproc   = 3000
	overheadPairs = 3 // untraced/traced pipeline pairs for the overhead
)

func (p *inproc) samples() int { return inprocBatches * p.wl.batch }

// freshWAL returns an empty WAL path in WAL mode, "" otherwise.
func (p *inproc) freshWAL() (string, error) {
	if p.wl.durability != "wal" {
		return "", nil
	}
	path := filepath.Join(p.dir, "inproc.wal")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	return path, nil
}

// wireSamples converts batch b for the wire; the ts carries the sample's
// overall index so engine results can be matched to their batch.
func (p *inproc) wireSamples(b int, batch []sample, dst []wire.Sample) []wire.Sample {
	dst = dst[:0]
	for j, x := range batch {
		dst = append(dst, wire.Sample{Stream: p.set.ids[x.stream], TS: int64(b*p.wl.batch + j), Value: x.value, Seq: uint64(x.k) + 1})
	}
	return dst
}

func (p *inproc) jsonBody(batch []sample, tsBase int64) []byte {
	req := server.IngestRequest{Source: "bench"}
	for j, x := range batch {
		req.Samples = append(req.Samples, server.IngestSample{Stream: p.set.ids[x.stream], TS: tsBase + int64(j), Value: x.value, Seq: uint64(x.k) + 1})
	}
	b, _ := json.Marshal(req) // plain structs of strings and numbers: cannot fail
	return b
}

// pipelineOut is one run of the in-process pipeline.
type pipelineOut struct {
	perSample time.Duration // wall time per measured sample, first send to drained
	enqueue   []float64     // µs per IngestBatch
	queueWait []float64     // µs
	step      []float64     // µs
	onResult  []float64     // ns
	cacheRec  []float64     // ns
	histRec   []float64     // ns
	keyed     []float64     // µs per Server.IngestKeyed
	spans     []span
}

// pipeline runs the measured batches through a fresh stack over the binary
// wire's server path: decode, then IngestKeyed. traced turns the timing
// on.
func (p *inproc) pipeline(ctx context.Context, traced bool) (*pipelineOut, error) {
	var tr *tracer
	if traced {
		tr = &tracer{t0: time.Now()}
	}
	walPath, err := p.freshWAL()
	if err != nil {
		return nil, err
	}
	s, err := newStack(walPath, tr, p.samples(), inprocBatches)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.warm(p.set, p.warm); err != nil {
		return nil, err
	}
	// Encode outside the timed region: the client's cost is not the
	// server's.
	var enc wire.Encoder
	var ws []wire.Sample
	frames := make([][]byte, len(p.batches))
	for b, batch := range p.batches {
		ws = p.wireSamples(b, batch, ws)
		rec := enc.AppendBatch(nil, uint64(b+1), "bench", ws)
		payload, _, err := durable.ReadRecord(bufio.NewReader(bytes.NewReader(rec)), nil, 1<<24)
		if err != nil {
			return nil, err
		}
		frames[b] = payload[1:]
	}
	out := &pipelineOut{}
	var dec wire.BatchDecoder
	var keyed []server.KeyedSample
	start := time.Now()
	for b := range p.batches {
		var t0 int64
		if tr != nil {
			s.cur = int32(b)
			t0 = tr.now()
		}
		_, src, smp, err := dec.Decode(frames[b])
		if err != nil {
			return nil, err
		}
		if tr != nil {
			t1 := tr.now()
			tr.add(spWireDecode, -1, int32(b), t0, t1)
			t0 = t1
			s.curSpan = tr.reserve(spIngestKeyed, -1, int32(b))
			s.keyedOf[b] = s.curSpan
		}
		keyed = keyed[:0]
		for _, x := range smp {
			keyed = append(keyed, server.KeyedSample{Sample: engine.Sample{ID: x.Stream, TS: x.TS, Value: x.Value}, Source: src, Seq: x.Seq})
		}
		o := s.srv.IngestKeyed(ctx, "", keyed)
		if o.Err != nil || o.Accepted != len(keyed) {
			return nil, fmt.Errorf("in-process ingest: accepted %d of %d: %v", o.Accepted, len(keyed), o.Err)
		}
		if tr != nil {
			end := tr.now()
			tr.set(s.curSpan, t0, end)
			out.keyed = append(out.keyed, float64(end-t0)/1e3)
		}
	}
	s.eng.Drain()
	out.perSample = time.Since(start) / time.Duration(p.samples())
	if tr == nil {
		return out, nil
	}
	// Enqueue times are the engine.ingest_batch spans; the per-sample
	// spans are built now that the workers have drained.
	for _, sp := range tr.spans {
		if sp.name == spEnqueue {
			out.enqueue = append(out.enqueue, float64(sp.end-sp.start)/1e3)
		}
	}
	for i := 0; i < p.samples(); i++ {
		b := i / p.wl.batch
		out.queueWait = append(out.queueWait, float64(max(0, s.hookAt[i]-s.retAt[b]))/1e3)
		out.step = append(out.step, float64(s.resultAt[i]-s.hookAt[i])/1e3)
		out.cacheRec = append(out.cacheRec, float64(s.cacheEnd[i]-s.resultAt[i]))
		out.histRec = append(out.histRec, float64(s.histEnd[i]-s.cacheEnd[i]))
		out.onResult = append(out.onResult, float64(s.histEnd[i]-s.resultAt[i]))
		if i%sampleSpanEvery != 0 {
			continue
		}
		parent := s.keyedOf[b]
		tr.add(spQueueWait, parent, int32(b), min(s.retAt[b], s.hookAt[i]), s.hookAt[i])
		tr.add(spStep, parent, int32(b), s.hookAt[i], s.resultAt[i])
		or := tr.add(spOnResult, parent, int32(b), s.resultAt[i], s.histEnd[i])
		tr.add(spCache, or, int32(b), s.resultAt[i], s.cacheEnd[i])
		tr.add(spHistory, or, int32(b), s.cacheEnd[i], s.histEnd[i])
	}
	out.spans = tr.spans
	return out, nil
}

// sampleSpanEvery thins the per-sample spans written to the span file;
// the distributions above use every sample.
const sampleSpanEvery = 16

// miniPass times HTTP/JSON ingest, ServeHTTP POST /v1/ingest, on the
// extra batches: the transport the workloads' binary wire bypasses.
func (p *inproc) miniPass(ctx context.Context) (httpIn []float64, err error) {
	walPath, err := p.freshWAL()
	if err != nil {
		return nil, err
	}
	s, err := newStack(walPath, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.warm(p.set, p.warm); err != nil {
		return nil, err
	}
	h := s.srv.Handler()
	for b, batch := range p.extra {
		body := p.jsonBody(batch, -1-int64(b*p.wl.batch+len(batch)))
		rw := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)).WithContext(ctx)
		t := time.Now()
		h.ServeHTTP(rw, req)
		httpIn = append(httpIn, float64(time.Since(t))/1e3)
		if rw.Code != http.StatusAccepted {
			return nil, fmt.Errorf("in-process ingest: status %d", rw.Code)
		}
	}
	s.eng.Drain()
	return httpIn, nil
}

// handlerTransport serves requests by calling the handler directly and
// times each ServeHTTP by endpoint kind.
type handlerTransport struct {
	h    http.Handler
	took map[string][]float64 // µs
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rw := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(rw, req)
	us := float64(time.Since(start)) / 1e3
	kind := readForecast
	switch {
	case req.URL.Path == "/v1/forecasts":
		kind = readBulk
	case strings.HasSuffix(req.URL.Path, "/history"):
		kind = readHistory
	}
	t.took[kind] = append(t.took[kind], us)
	return rw.Result(), nil
}

// readPass runs the read mix against a warmed in-process stack and times
// ServeHTTP on each read route.
func (p *inproc) readPass(ctx context.Context, seed uint64) (map[string][]float64, readStats, error) {
	s, err := newStack("", nil, 0, 0)
	if err != nil {
		return nil, readStats{}, err
	}
	defer s.close()
	if err := s.warm(p.set, p.warm); err != nil {
		return nil, readStats{}, err
	}
	t := &handlerTransport{h: s.srv.Handler(), took: map[string][]float64{}}
	st := newReader("http://inproc", &http.Client{Transport: t}, p.set, seed).readN(ctx, readsInproc)
	if st.failed > 0 {
		return nil, st, fmt.Errorf("in-process reads: %d of %d failed", st.failed, len(st.lat.xs))
	}
	return t.took, st, nil
}

// engineCeiling is samples/s through the engine alone (cache and history
// on OnResult, no transport).
func (p *inproc) engineCeiling() (float64, error) {
	s, err := newStack("", nil, 0, 0)
	if err != nil {
		return 0, err
	}
	defer s.close()
	if err := s.warm(p.set, p.warm); err != nil {
		return 0, err
	}
	batches := make([][]engine.Sample, len(p.batches))
	for b, batch := range p.batches {
		for _, x := range batch {
			batches[b] = append(batches[b], engine.Sample{ID: p.set.ids[x.stream], TS: -1, Value: x.value})
		}
	}
	start := time.Now()
	for _, b := range batches {
		if _, err := s.eng.IngestBatch(b); err != nil {
			return 0, err
		}
	}
	s.eng.Drain()
	return float64(p.samples()) / time.Since(start).Seconds(), nil
}

// layerWire times Encoder.AppendBatch and BatchDecoder.Decode per batch.
func (p *inproc) layerWire() (encNS, decNS, bytesPer float64, err error) {
	var enc wire.Encoder
	var dec wire.BatchDecoder
	var ws []wire.Sample
	var buf []byte
	var encT, decT time.Duration
	total := 0
	for b, batch := range p.batches {
		ws = p.wireSamples(b, batch, ws)
		t := time.Now()
		buf = enc.AppendBatch(buf[:0], uint64(b+1), "bench", ws)
		encT += time.Since(t)
		total += len(buf)
		payload, _, rerr := durable.ReadRecord(bufio.NewReader(bytes.NewReader(buf)), nil, 1<<24)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		t = time.Now()
		_, _, got, derr := dec.Decode(payload[1:])
		decT += time.Since(t)
		if derr != nil || len(got) != len(batch) {
			return 0, 0, 0, fmt.Errorf("wire round trip of batch %d: %v", b, derr)
		}
	}
	n := float64(p.samples())
	return float64(encT) / n, float64(decT) / n, float64(total) / n, nil
}

// layerDurable times BatchWAL.Append and BatchWAL.Sync per batch.
func (p *inproc) layerDurable() (appendUS, syncUS []float64, err error) {
	path := filepath.Join(p.dir, "layer.wal")
	os.Remove(path)
	w, _, _, err := durable.OpenBatchWAL(path)
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(path)
	defer w.Close()
	var ks []server.KeyedSample
	var buf []byte
	for _, batch := range p.batches {
		ks = ks[:0]
		for _, x := range batch {
			ks = append(ks, server.KeyedSample{Sample: engine.Sample{ID: p.set.ids[x.stream], Value: x.value}, Source: "bench", Seq: uint64(x.k) + 1})
		}
		buf = encodeWALish(buf[:0], ks)
		t := time.Now()
		if err := w.Append(buf); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		if err := w.Sync(); err != nil {
			return nil, nil, err
		}
		appendUS = append(appendUS, float64(t1.Sub(t))/1e3)
		syncUS = append(syncUS, float64(time.Since(t1))/1e3)
	}
	return appendUS, syncUS, nil
}

// layerDedup is ns per Dedup.Apply over the measured batches' keys.
func (p *inproc) layerDedup() float64 {
	d := server.NewDedup()
	var took time.Duration
	for _, batch := range p.batches {
		t := time.Now()
		for _, x := range batch {
			d.Apply(p.set.ids[x.stream], "bench", uint64(x.k)+1)
		}
		took += time.Since(t)
	}
	return float64(took) / float64(p.samples())
}

// coreOut is the single-goroutine core baseline.
type coreOut struct {
	stepNS   []float64
	trainMS  []float64
	onlineB  float64 // heap bytes per stream, Online alone
	readB    float64 // heap bytes per stream, HistoryStore + ResultCache
	sources  map[string]int
	steps    int
	retrains int
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// layerCore steps one Online per stream on one goroutine: warm-up (timing
// every step that trains), then the measured samples (timing every step).
func (p *inproc) layerCore() (*coreOut, error) {
	out := &coreOut{sources: map[string]int{}}
	h0 := heapInUse()
	onl := make([]*core.Online, p.set.len())
	for i := range onl {
		o, err := newReference()
		if err != nil {
			return nil, err
		}
		onl[i] = o
	}
	step := func(x sample, measured bool) {
		o := onl[x.stream]
		before, wasTrained := o.Retrains(), o.Trained()
		t := time.Now()
		pred, _, err := o.Step(x.value)
		d := time.Since(t)
		if o.Retrains() != before || o.Trained() != wasTrained {
			out.retrains++
			out.trainMS = append(out.trainMS, float64(d)/1e6)
		}
		if measured {
			out.stepNS = append(out.stepNS, float64(d))
			out.steps++
			if err == nil {
				out.sources[pred.Source]++
			}
		}
	}
	for _, x := range p.warm {
		step(x, false)
	}
	out.onlineB = float64(heapInUse()-h0) / float64(p.set.len())
	for _, batch := range p.batches {
		for _, x := range batch {
			step(x, true)
		}
	}
	runtime.KeepAlive(onl)

	// Read-path state, measured on up to 1000 streams: per-stream cost is
	// uniform and the full store would double the harness's footprint.
	n := min(p.set.len(), 1000)
	h1 := heapInUse()
	hist, err := server.NewHistoryStore(server.HistoryConfig{})
	if err != nil {
		return nil, err
	}
	cache := server.NewResultCache()
	for round := 0; round < p.wl.warm; round++ {
		for i := 0; i < n; i++ {
			r := engine.Result{Sample: engine.Sample{ID: p.set.ids[i], TS: int64(round), Value: 1}}
			cache.Record(r)
			hist.Record(r)
		}
	}
	out.readB = float64(heapInUse()-h1) / float64(n)
	runtime.KeepAlive(hist)
	runtime.KeepAlive(cache)
	return out, nil
}

// ---- the traced run ----

func traced(ctx context.Context, wl workload, e env) (*report, *run, *results, error) {
	// Part 1: the daemon, with scrapes.
	r := newRun(wl, e)
	if err := r.setUp(ctx, 0); err != nil {
		if r.d != nil {
			r.d.stop()
		}
		return nil, r, nil, fmt.Errorf("set-up: %w", err)
	}
	// The scraper owns depthMax until it closes scraped.
	depthMax := 0.0
	stopScrape := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		hc := &http.Client{Timeout: 5 * time.Second}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-t.C:
			}
			sc, err := r.d.scrape(ctx, hc)
			if err != nil {
				continue
			}
			for k, v := range sc {
				if strings.HasPrefix(k, "larpredictor_engine_queue_depth{") {
					depthMax = max(depthMax, v)
				}
			}
		}
	}()
	res, err := r.measure(ctx)
	close(stopScrape)
	<-scraped
	r.d.stop()
	if err != nil {
		return nil, r, nil, err
	}

	// Part 2: in process, after the daemon has exited.
	p := newInproc(wl, e)
	encNS, decNS, bytesPer, err := p.layerWire()
	if err != nil {
		return nil, r, nil, err
	}
	appendUS, syncUS, err := p.layerDurable()
	if err != nil {
		return nil, r, nil, err
	}
	dedupNS := p.layerDedup()
	co, err := p.layerCore()
	if err != nil {
		return nil, r, nil, err
	}
	// Tracing overhead: alternating untraced/traced pipeline passes, each
	// on a fresh stack; the figure is the median of the pairs' differences.
	// The first traced pass supplies the distributions and spans.
	var tp *pipelineOut
	var overs, plains []float64
	for pair := 0; pair < overheadPairs; pair++ {
		var took [2]time.Duration
		for j := 0; j < 2; j++ {
			withTrace := (pair+j)%2 == 1
			debug.FreeOSMemory() // return the previous pass's memory first
			out, err := p.pipeline(ctx, withTrace)
			if err != nil {
				return nil, r, nil, err
			}
			if withTrace {
				took[1] = out.perSample
				if tp == nil {
					tp = out
				}
			} else {
				took[0] = out.perSample
			}
		}
		overs = append(overs, float64(took[1]-took[0]))
		plains = append(plains, float64(took[0]))
	}
	debug.FreeOSMemory()
	httpIn, err := p.miniPass(ctx)
	if err != nil {
		return nil, r, nil, err
	}
	debug.FreeOSMemory()
	readTook, readSt, err := p.readPass(ctx, e.seed)
	if err != nil {
		return nil, r, nil, err
	}
	debug.FreeOSMemory()
	ceiling, err := p.engineCeiling()
	if err != nil {
		return nil, r, nil, err
	}

	spans := tp.spans
	for b, rec := range res.open {
		spans = append(spans, clientSpan(len(spans), spClientOpen, b, rec))
	}
	for _, c := range res.closed {
		for b, rec := range c {
			spans = append(spans, clientSpan(len(spans), spClientClose, b, rec))
		}
	}
	spanPath := filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.tsv", wl.name, e.seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, r, nil, err
	}

	rep := newReport()
	// perr keeps the first percentile refused for too few samples.
	ackP50, _, perr := windowedPercentile(res.series(func(r *round) series { return r.ack }), latencyWindow, 0.5)
	pc := func(vals []float64, q float64) float64 {
		v, e := percentile(vals, q)
		if e != nil && perr == nil {
			perr = e
		}
		return v
	}
	b, a := res.before, res.after

	rep.add("wire.encode_ns_per_sample", encNS, "ns", "Encoder.AppendBatch")
	rep.add("wire.decode_ns_per_sample", decNS, "ns", "BatchDecoder.Decode")
	rep.add("wire.bytes_per_sample", bytesPer, "B", "framed batch bytes")
	rep.add("wire.acks_refused", delta(b, a, "predictd_wire_acks_total")-delta(b, a, "predictd_wire_acks_total", `status="ok"`), "count", "scrape")

	rep.add("durable.append_us_p50", pc(appendUS, 0.5), "us", fmt.Sprintf("BatchWAL.Append n=%d", len(appendUS)))
	rep.add("durable.fsync_us_p50", pc(syncUS, 0.5), "us", fmt.Sprintf("BatchWAL.Sync n=%d", len(syncUS)))
	rep.add("durable.fsync_us_p99", pc(syncUS, 0.99), "us", fmt.Sprintf("BatchWAL.Sync n=%d", len(syncUS)))

	perAppend := 0.0
	if n := delta(b, a, "predictd_wal_appends_total"); n > 0 {
		perAppend = delta(b, a, "predictd_ingest_samples_accepted_total") / n
	}
	rep.add("predictd.samples_per_wal_append", perAppend, "count", "scrape; 0 without a WAL")
	rep.add("predictd.dedup_hits", delta(b, a, "predictd_dedup_hits_total"), "count", "scrape")
	if wl.durability == "wal" {
		rep.add("predictd.ack_over_fsync_ms", ackP50-pc(syncUS, 0.5)/1e3, "ms", fmt.Sprintf("ack_p50 %.4f ms minus fsync p50", ackP50))
	} else {
		rep.add("predictd.ack_over_fsync_ms", ackP50, "ms", "ack_p50: no fsync on the ack path without a WAL")
	}

	rep.add("server.dedup_apply_ns", dedupNS, "ns", "Dedup.Apply")
	rep.add("server.ingest_keyed_us_p50", pc(tp.keyed, 0.5), "us", fmt.Sprintf("Server.IngestKeyed n=%d", len(tp.keyed)))
	rep.add("server.ingest_http_us_p50", pc(httpIn, 0.5), "us", fmt.Sprintf("ServeHTTP POST /v1/ingest n=%d", len(httpIn)))
	rep.add("server.cache_record_ns", median(tp.cacheRec), "ns", "ResultCache.Record median")
	rep.add("server.history_record_ns", median(tp.histRec), "ns", "HistoryStore.Record median")
	rep.add("server.forecast_us_p50", pc(readTook[readForecast], 0.5), "us", fmt.Sprintf("ServeHTTP n=%d", len(readTook[readForecast])))
	rep.add("server.bulk_us_p50", pc(readTook[readBulk], 0.5), "us", fmt.Sprintf("ServeHTTP n=%d", len(readTook[readBulk])))
	rep.add("server.history_us_p50", pc(readTook[readHistory], 0.5), "us", fmt.Sprintf("ServeHTTP n=%d", len(readTook[readHistory])))
	ratio304 := 0.0
	if readSt.bulk > 0 {
		ratio304 = float64(readSt.bulk304) / float64(readSt.bulk)
	}
	rep.add("server.bulk_304_ratio", ratio304, "ratio", fmt.Sprintf("%d of %d bulk reads", readSt.bulk304, readSt.bulk))
	for _, ep := range []string{readForecast, readBulk, readHistory, "ingest"} {
		mean := 0.0
		if n := delta(b, a, "predictd_http_request_seconds_count", `endpoint="`+ep+`"`); n > 0 {
			mean = delta(b, a, "predictd_http_request_seconds_sum", `endpoint="`+ep+`"`) / n * 1e6
		}
		rep.add("server.http_request_mean_us."+ep, mean, "us", "scrape; 0 when the route was not used")
	}

	rep.add("engine.enqueue_us_p50", pc(tp.enqueue, 0.5), "us", fmt.Sprintf("IngestBatch n=%d", len(tp.enqueue)))
	rep.add("engine.enqueue_us_p99", pc(tp.enqueue, 0.99), "us", fmt.Sprintf("IngestBatch n=%d", len(tp.enqueue)))
	rep.add("engine.queue_wait_us_p50", pc(tp.queueWait, 0.5), "us", fmt.Sprintf("n=%d", len(tp.queueWait)))
	rep.add("engine.queue_wait_us_p99", pc(tp.queueWait, 0.99), "us", fmt.Sprintf("n=%d", len(tp.queueWait)))
	rep.add("engine.step_us_p50", pc(tp.step, 0.5), "us", "StepHook to OnResult")
	rep.add("engine.on_result_ns", median(tp.onResult), "ns", "OnResult median")
	batchMean := 0.0
	if n := delta(b, a, "larpredictor_engine_batch_size_count"); n > 0 {
		batchMean = delta(b, a, "larpredictor_engine_batch_size_sum") / n
	}
	rep.add("engine.batch_size_mean", batchMean, "count", "scrape")
	rep.add("engine.queue_depth_max", depthMax, "count", "scrape every 100 ms")
	rep.add("engine.samples_per_s", ceiling, "1/s", "in process, no transport")

	rep.add("core.step_ns_p50", pc(co.stepNS, 0.5), "ns", fmt.Sprintf("Online.Step n=%d", len(co.stepNS)))
	rep.add("core.step_ns_p99", pc(co.stepNS, 0.99), "ns", fmt.Sprintf("Online.Step n=%d", len(co.stepNS)))
	rep.add("core.trains", float64(co.retrains), "count", "initial trains and retrains, warm-up and measured steps")
	rep.add("core.train_ms_p50", median(co.trainMS), "ms", "Online.Step calls that trained")
	rep.add("core.bytes_per_stream.online", co.onlineB, "B", "heap after warm-up")
	rep.add("core.bytes_per_stream.readpath", co.readB, "B", "HistoryStore+ResultCache heap")
	for _, rs := range []struct{ name, src string }{
		{"lar", core.SourceLAR}, {"tournament", core.SourceTournament},
		{"windowed", core.SourceSelector}, {"last", core.SourceLastResort},
	} {
		rep.add("core.rung_share."+rs.name, float64(co.sources[rs.src])/float64(co.steps), "ratio", "Prediction.Source")
	}

	var late []float64
	for _, rnd := range res.rounds {
		late = append(late, rnd.late...)
	}
	rep.add("bench.gen_late_p99_ms", pc(late, 0.99), "ms", "open-loop generator lateness")

	over, plain := median(overs), median(plains)
	rep.add("trace.overhead_ns_per_sample", over, "ns", fmt.Sprintf("in-process pipeline, median of %d traced-minus-untraced pairs %.0f", overheadPairs, overs))
	rep.add("trace.overhead_pct", 100*over/plain, "%", fmt.Sprintf("of the untraced in-process time, median %.0f ns per sample", plain))
	if perr != nil {
		return nil, r, nil, perr
	}

	fmt.Println("self time by layer, in-process traced pipeline (per-sample spans: every 16th sample):")
	self, counts := selfTimes(tp.spans), map[string]int{}
	for _, sp := range tp.spans {
		counts[sp.name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %8d spans  mean self %10.3f us\n", n, counts[n], float64(self[n])/1e3/float64(counts[n]))
	}
	fmt.Printf("daemon part: ack_p50 %.4f ms; %d spans in %s\n", ackP50, len(spans), spanPath)
	return rep, r, res, nil
}

// clientSpan is a daemon-part batch as a root span; its times are unix
// nanoseconds, since it ran before the in-process tracer's origin.
func clientSpan(id int, name string, b int, rec *batchRec) span {
	return span{id: int32(id), parent: -1, name: name, batch: int32(b),
		start: rec.sent.UnixNano(), end: rec.done.UnixNano()}
}
