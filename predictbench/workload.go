package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/acis-lab/larpredictor/internal/server"
)

// workload is one traffic mix. Rates are fixed per workload (measured once
// against the one-connection ceiling and written down here), so every run
// offers identical load and runs of two commits compare.
type workload struct {
	name       string
	durability string // predictd -durability
	streams    int
	batch      int
	warm       int // warm-up samples per stream

	openRate      float64 // offered samples/s in the open-loop phase
	closedSamples int     // samples sent in the closed-loop phase
	closedConns   int
	window        int // in-flight batches per binary connection, closed loop
}

var workloads = []workload{
	{
		name: "durable-ingest", durability: "wal", streams: 1000, batch: 64, warm: 64,
		openRate: 9216, closedSamples: 460_800, closedConns: 2, window: 4,
	},
	{
		name: "many-streams", durability: "snapshot", streams: 10_000, batch: 256, warm: 64,
		openRate: 102_400, closedSamples: 2_457_600, closedConns: 1, window: 4,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fixed harness shape.
const (
	setups = 3 // set-ups per untraced run; setup_s is their median
	rounds = 8 // measured rounds per run
	// steadyPerStream is how many samples a stream must have seen before
	// its state stops growing: the predictor's history reaches its
	// 4 × train-size cap. The pre-roll brings every stream there, so the
	// measured rounds see steady-state memory and per-step cost.
	steadyPerStream = 240
	sseStreams      = 256 // streams the SSE subscriber and the oracle watch
	warmBatch       = 256
	warmWindow      = 8
	openWindow      = 64
	sseGrace        = 5 * time.Second
	drainWait       = 60 * time.Second
	warmTimeout     = 180 * time.Second
)

// env is what a run needs from its surroundings.
type env struct {
	predictd string // daemon binary
	work     string // scratch directory inside the checkout
	seed     uint64
	seconds  int
}

// run is one daemon's life under a workload: set-up, then the measured
// phases.
type run struct {
	wl   workload
	env  env
	set  *streamSet
	next []uint32
	d    *daemon
	hc   *http.Client
	orc  *oracle
	subs []int // SSE subset

	attempted, failed int
	setupTimes        []float64
}

func newRun(wl workload, e env) *run {
	set := newStreamSet(e.seed, wl.streams)
	subs := set.subset(sseStreams, 0x737365)
	return &run{
		wl: wl, env: e, set: set, subs: subs,
		hc: &http.Client{Timeout: 30 * time.Second},
	}
}

func (r *run) daemonArgs() []string { return []string{"-durability", r.wl.durability} }

// preRoll sends every stream the samples it still needs to reach
// steadyPerStream, over two binary connections. It is not measured.
func (r *run) preRoll(ctx context.Context) error {
	if r.wl.warm >= steadyPerStream {
		return nil
	}
	return r.sendAll(ctx, warmup(r.set, steadyPerStream-r.wl.warm, r.next), "pre-roll")
}

// sendAll sends samples over two binary connections, streams split by
// parity, and fails unless every batch is acked.
func (r *run) sendAll(ctx context.Context, all []sample, what string) error {
	parts := make([][]sample, 2)
	for _, s := range all {
		parts[s.stream%2] = append(parts[s.stream%2], s)
	}
	var ings []*ingester
	var srcs []source
	for c := range parts {
		bi, err := dialBinary(ctx, r.d.binAddr, r.set, warmWindow, "bench")
		if err != nil {
			return err
		}
		defer bi.close()
		ings = append(ings, bi)
		srcs = append(srcs, sliceSource(parts[c], warmBatch))
	}
	recs, err := driveAll(ctx, ings, srcs, nil, warmWindow)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	for _, c := range recs {
		for _, b := range c {
			r.attempted++
			if !b.ok {
				r.failed++
				return fmt.Errorf("%s: batch refused", what)
			}
		}
	}
	r.orc.record(recs)
	return nil
}

// setUp starts a fresh daemon on a fresh state directory and warms it: every
// stream gets r.wl.warm samples, and set-up ends once every one of them has
// been processed and every stream has trained (serves a forecast).
func (r *run) setUp(ctx context.Context, n int) error {
	start := time.Now()
	dir := filepath.Join(r.env.work, fmt.Sprintf("state-%s-%d", r.wl.name, n))
	d, err := startDaemon(ctx, r.env.predictd, dir, dir+".log", r.daemonArgs())
	if err != nil {
		return err
	}
	r.d = d
	r.next = make([]uint32, r.set.len())
	r.orc = newOracle(r.set, r.subs)
	if err := r.sendAll(ctx, warmup(r.set, r.wl.warm, r.next), "warm-up"); err != nil {
		return err
	}
	if err := r.waitWarm(ctx); err != nil {
		return err
	}
	r.setupTimes = append(r.setupTimes, time.Since(start).Seconds())
	return nil
}

// waitWarm polls the bulk forecast pages until every stream has processed
// its warm-up samples and serves a forecast.
func (r *run) waitWarm(ctx context.Context) error {
	deadline := time.Now().Add(warmTimeout)
	for {
		docs, err := forecasts(ctx, r.hc, r.d)
		if err != nil {
			return err
		}
		ready := 0
		for i, id := range r.set.ids {
			if doc, ok := docs[id]; ok && doc.Processed == uint64(r.next[i]) && doc.Forecast != nil {
				ready++
			}
		}
		if ready == r.set.len() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d streams ready after %v", ready, r.set.len(), warmTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// results holds everything the measured phases produced.
type results struct {
	rounds   []round
	rssMB    float64
	mismatch int
	firstBad error
	before   scrape
	after    scrape
	open     []*batchRec   // open-loop batches of every round, in send order
	closed   [][]*batchRec // closed-loop batches of every round
}

// round is one pass through the measured phases. The measured part is
// split into rounds spread over the run; every figure is taken over all
// rounds.
type round struct {
	ack    series // ms from due time, at the due time
	fresh  series // ms from creation, at the creation stamp
	closed series // samples acked per batch, at its ack
	reads  readStats
	late   []float64 // ms the generator ran behind its schedule
	cpu    time.Duration
	acked  int // samples acked in the ingest phases
}

// How the measured series are cut for the windowed medians.
const (
	latencyWindow = 500 * time.Millisecond // open-loop acks and SSE events
	readWindow    = 250 * time.Millisecond // read latencies
)

// series collects one series from every round.
func (res *results) series(f func(*round) series) []series {
	out := make([]series, len(res.rounds))
	for i := range res.rounds {
		out[i] = f(&res.rounds[i])
	}
	return out
}

// ingesters opens n measured-phase binary ingest connections.
func (r *run) ingesters(ctx context.Context, n, window int) ([]*ingester, error) {
	var out []*ingester
	for c := 0; c < n; c++ {
		ing, err := dialBinary(ctx, r.d.binAddr, r.set, window, "bench")
		if err != nil {
			for _, o := range out {
				o.close()
			}
			return nil, err
		}
		out = append(out, ing)
	}
	return out, nil
}

// readClient is the reader's one keep-alive connection.
func readClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
}

func closeAll(ings []*ingester) {
	for _, i := range ings {
		i.close()
	}
}

// measure runs the measured rounds against the warmed daemon — each an
// open-loop phase with the SSE subscriber, a closed-loop phase and a read
// phase — then checks the served forecasts against the oracle.
func (r *run) measure(ctx context.Context) (*results, error) {
	if err := r.preRoll(ctx); err != nil {
		return nil, err
	}
	if err := r.waitApplied(ctx); err != nil {
		return nil, err
	}
	res := &results{}
	var err error
	if res.before, err = r.d.scrape(ctx, r.hc); err != nil {
		return nil, err
	}
	rd := newReader("http://"+r.d.httpAddr, readClient(), r.set, r.env.seed)
	for n := 0; n < rounds; n++ {
		var rnd round
		// CPU is charged for ingest only: the read phase's requests are not
		// samples.
		cpu0, err := r.d.cpuTime()
		if err != nil {
			return nil, err
		}
		if err := r.openLoop(ctx, res, &rnd); err != nil {
			return nil, err
		}
		if err := r.closedLoop(ctx, res, &rnd); err != nil {
			return nil, err
		}
		if err := r.waitApplied(ctx); err != nil {
			return nil, err
		}
		cpu1, err := r.d.cpuTime()
		if err != nil {
			return nil, err
		}
		rnd.cpu = cpu1 - cpu0
		rnd.reads = rd.readFor(ctx, r.phase()/4)
		r.noteReads(rnd.reads)
		res.rounds = append(res.rounds, rnd)
	}
	if res.after, err = r.d.scrape(ctx, r.hc); err != nil {
		return nil, err
	}
	if res.rssMB, err = r.d.peakRSSMB(); err != nil {
		return nil, err
	}
	served, err := bulkForecasts(ctx, r.hc, r.d, r.subIDs())
	if err != nil {
		return nil, err
	}
	hist := map[string][]server.HistoryEntry{}
	for _, id := range r.subIDs() {
		if hist[id], err = history(ctx, r.hc, r.d, id); err != nil {
			return nil, err
		}
	}
	if res.mismatch, res.firstBad, err = r.orc.check(served, hist); err != nil {
		return nil, err
	}
	return res, nil
}

// phase is one round's open-loop length.
func (r *run) phase() time.Duration { return time.Duration(r.env.seconds) * time.Second / rounds }

func (r *run) subIDs() []string {
	ids := make([]string, len(r.subs))
	for j, i := range r.subs {
		ids[j] = r.set.ids[i]
	}
	return ids
}

func (r *run) noteReads(st readStats) {
	r.attempted += len(st.lat.xs)
	r.failed += st.failed
}

// noteBatches counts a phase's batches and returns the samples acked.
func (r *run) noteBatches(conns [][]*batchRec) int {
	acked := 0
	for _, c := range conns {
		for _, b := range c {
			r.attempted++
			if b.ok {
				acked += len(b.samples)
			} else {
				r.failed++
			}
		}
	}
	r.orc.record(conns)
	return acked
}

func (r *run) openLoop(ctx context.Context, res *results, rnd *round) error {
	// Subscribe from each stream's current position: every earlier sample
	// of the subset has been processed (waitApplied), so its history seq
	// is its acked count and no backfill is replayed.
	from := map[string]uint64{}
	isSub := map[int32]bool{}
	for _, i := range r.subs {
		from[r.set.ids[i]] = r.orc.ackedCount(i)
		isSub[int32(i)] = true
	}
	sub, err := subscribe(ctx, r.hc, r.d, r.subIDs(), from)
	if err != nil {
		return err
	}
	ings, err := r.ingesters(ctx, 1, openWindow)
	if err != nil {
		sub.close()
		return err
	}
	defer closeAll(ings)
	all := make([]int, r.set.len())
	for i := range all {
		all[i] = i
	}
	dr := newDrawer(r.set, all, r.next, 0x6f70656e+uint64(len(res.rounds)))
	start := time.Now().Add(20 * time.Millisecond)
	sched := newSchedule(start, r.wl.openRate/float64(r.wl.batch))
	n := sched.count(r.phase())

	conns, derr := driveAll(ctx, ings, []source{drawSource(dr, r.wl.batch, n)}, &sched, openWindow)
	if derr != nil {
		sub.close()
		return derr
	}
	rnd.acked += r.noteBatches(conns)
	res.open = append(res.open, conns[0]...)

	// The events the subscriber must see: one per acked sample of a
	// subscribed stream.
	type key struct {
		stream string
		ts     int64
	}
	want := map[key]int{}
	expected := 0
	rnd.ack = series{from: start, d: r.phase()}
	rnd.fresh = series{from: start, d: r.phase()}
	for j, b := range conns[0] {
		rnd.ack.xs = append(rnd.ack.xs, obs{sched.due(j), ms(sched.latency(j, b.done))})
		rnd.late = append(rnd.late, ms(sched.late(j, b.sent)))
		if !b.ok {
			continue
		}
		for _, s := range b.samples {
			if isSub[s.stream] {
				want[key{r.set.ids[s.stream], b.ts}]++
				expected++
			}
		}
	}
	stamp := start.Add(-time.Second).UnixNano()
	deadline := time.Now().Add(sseGrace)
	for sub.count(stamp) < expected && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	for _, e := range sub.close() {
		k := key{e.stream, e.ts}
		if want[k] > 0 {
			want[k]--
			expected--
			created := time.Unix(0, e.ts)
			rnd.fresh.xs = append(rnd.fresh.xs, obs{created, ms(e.at.Sub(created))})
		}
	}
	r.attempted += len(rnd.fresh.xs) + expected
	r.failed += expected // events that never arrived
	return nil
}

func (r *run) closedLoop(ctx context.Context, res *results, rnd *round) error {
	conns := r.wl.closedConns
	ings, err := r.ingesters(ctx, conns, r.wl.window)
	if err != nil {
		return err
	}
	defer closeAll(ings)
	parts := partition(r.set.len(), conns)
	srcs := make([]source, conns)
	per := r.wl.closedSamples / rounds / r.wl.batch / conns
	for c := range srcs {
		salt := 0x636c6f73 + uint64(c) + uint64(len(res.rounds))<<8
		srcs[c] = drawSource(newDrawer(r.set, parts[c], r.next, salt), r.wl.batch, per)
	}
	recs, err := driveAll(ctx, ings, srcs, nil, r.wl.window)
	if err != nil {
		return err
	}
	var first, last time.Time
	for _, c := range recs {
		for _, b := range c {
			if first.IsZero() || b.sent.Before(first) {
				first = b.sent
			}
			if b.done.After(last) {
				last = b.done
			}
			if b.ok {
				rnd.closed.xs = append(rnd.closed.xs, obs{b.done, float64(len(b.samples))})
			}
		}
	}
	rnd.closed.from, rnd.closed.d = first, last.Sub(first)
	rnd.acked += r.noteBatches(recs)
	res.closed = append(res.closed, recs...)
	return nil
}

// waitApplied waits until the daemon has processed every acked sample of
// the checked streams.
func (r *run) waitApplied(ctx context.Context) error {
	deadline := time.Now().Add(drainWait)
	for {
		docs, err := bulkForecasts(ctx, r.hc, r.d, r.subIDs())
		if err != nil {
			return err
		}
		done := 0
		for _, i := range r.subs {
			if docs[r.set.ids[i]].Processed >= r.orc.ackedCount(i) {
				done++
			}
		}
		if done == len(r.subs) || time.Now().After(deadline) {
			return nil // a shortfall shows up as oracle mismatches
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report { return &report{metrics: map[string]metric{}, notes: map[string]string{}} }

func (p *report) add(name string, v float64, unit, note string) {
	if _, dup := p.metrics[name]; !dup {
		p.names = append(p.names, name)
	}
	p.metrics[name] = metric{v, unit}
	p.notes[name] = note
}

// latency adds name_p50_ms, the median over windows of each window's p50
// (see windowedPercentile), and a tail percentile and name_p99_ms over the
// whole run.
func (p *report) latency(name string, ss []series, w time.Duration, tail float64) error {
	v, used, err := windowedPercentile(ss, w, 0.50)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	all := values(ss)
	p.add(name+"_p50_ms", v, "ms", fmt.Sprintf("median of %d %v windows, n=%d", used, w, len(all)))
	for _, q := range []float64{tail, 0.99} {
		v, err := percentile(all, q)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p.add(fmt.Sprintf("%s_p%.0f_ms", name, q*100), v, "ms", fmt.Sprintf("whole run, n=%d", len(all)))
	}
	return nil
}

// gatedMetrics are the end-to-end metrics on the result line, and so in
// BENCHMARK.json's gate. The others are printed only: on a shared 2-vCPU
// machine they spread, or drift between sets of runs, by more than a bound
// can hold (README.md, Steadiness).
var gatedMetrics = map[string]bool{
	"setup_s": true, "ack_p50_ms": true, "ack_p90_ms": true,
	"ingest_samples_per_s": true, "server_rss_mb": true,
}

func (p *report) print(traced bool) {
	for _, n := range p.names {
		m := p.metrics[n]
		note := p.notes[n]
		if !traced && !gatedMetrics[n] {
			note += " (printed only)"
		}
		fmt.Fprintf(os.Stdout, "%-36s %14.4f %-6s %s\n", n, m.Value, m.Unit, note)
	}
}

// gated is the metrics that go on the result line: all of a traced run's,
// the gated ones of an untraced run's.
func (p *report) gated(traced bool) map[string]metric {
	out := map[string]metric{}
	for n, m := range p.metrics {
		if traced || gatedMetrics[n] {
			out[n] = m
		}
	}
	return out
}

// endToEnd runs the untraced benchmark: set up several times (the last
// daemon stays up), measure, and report every end-to-end metric.
func endToEnd(ctx context.Context, wl workload, e env) (*report, *run, *results, error) {
	r := newRun(wl, e)
	for n := 0; n < setups; n++ {
		if n > 0 {
			r.d.stop()
		}
		if err := r.setUp(ctx, n); err != nil {
			if r.d != nil {
				r.d.stop()
			}
			return nil, r, nil, fmt.Errorf("set-up %d: %w", n, err)
		}
	}
	defer r.d.stop()
	res, err := r.measure(ctx)
	if err != nil {
		return nil, r, nil, err
	}
	p := newReport()
	p.add("setup_s", median(r.setupTimes), "s", fmt.Sprintf("median of set-ups %.3f", r.setupTimes))
	if err := p.latency("ack", res.series(func(r *round) series { return r.ack }), latencyWindow, 0.90); err != nil {
		return nil, r, nil, err
	}
	ps, err := rate(res.series(func(r *round) series { return r.closed }))
	if err != nil {
		return nil, r, nil, fmt.Errorf("ingest: %w", err)
	}
	p.add("ingest_samples_per_s", ps, "1/s", fmt.Sprintf("closed loop, first send to last ack, %d rounds, %d samples", len(res.rounds), wl.closedSamples))
	if err := p.latency("fresh", res.series(func(r *round) series { return r.fresh }), latencyWindow, 0.90); err != nil {
		return nil, r, nil, err
	}
	reads := res.series(func(r *round) series { return r.reads.lat })
	// The read mix is three populations: single reads and 304s (70%),
	// history reads (20%) and full bulk reads (10%). Its tail figure is
	// p95, inside the slowest population; a p90 would sit on the boundary
	// between two.
	if err := p.latency("read", reads, readWindow, 0.95); err != nil {
		return nil, r, nil, err
	}
	counts := make([]series, len(reads))
	for i, s := range reads {
		counts[i] = series{from: s.from, d: s.d}
		for range s.xs {
			counts[i].xs = append(counts[i].xs, obs{v: 1})
		}
	}
	rps, err := rate(counts)
	if err != nil {
		return nil, r, nil, fmt.Errorf("reads: %w", err)
	}
	p.add("reads_per_s", rps, "1/s", fmt.Sprintf("whole read phases, n=%d", len(values(reads))))
	p.add("server_rss_mb", res.rssMB, "MiB", "VmHWM")
	var cpu time.Duration
	acked := 0
	for _, rnd := range res.rounds {
		cpu += rnd.cpu
		acked += rnd.acked
	}
	p.add("server_cpu_us_per_sample", float64(cpu)/float64(time.Microsecond)/float64(acked), "us", fmt.Sprintf("utime+stime of %d rounds over %d samples", len(res.rounds), acked))
	return p, r, res, nil
}
