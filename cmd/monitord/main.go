// Command monitord runs the paper's full monitoring-and-prediction pipeline
// (Figure 1) end to end on simulated time: a VMM monitoring agent samples
// every VM each (simulated) minute and consolidates five-minute averages
// into per-VM round-robin databases; a profiler periodically extracts each
// metric's recent series; a streaming LARPredictor per (VM, metric) forecasts
// the next consolidated value; forecasts and observations land in the
// prediction database; and the Prediction Quality Assuror audits recent
// prediction MSE, retraining predictors that drift.
//
//	monitord -duration 24h -vms VM2,VM4
//
// A day of simulated monitoring replays in a few seconds of wall time.
//
// Every (VM, metric) pipeline is supervised independently: pipelines run
// concurrently, a panicking or terminally Failed pipeline is quarantined and
// restarted with fresh state after a cooldown, and one bad stream can never
// take down the rest of the daemon. The -faults flag injects deterministic
// faults (dropouts, NaN bursts, spikes, stuck-at, clock gaps) into selected
// streams for chaos testing; see internal/faults for the spec grammar:
//
//	monitord -duration 48h -faults 'spike:p=0.02,mag=40,on=VM3/*'
//
// With -listen the daemon serves a JSON status document at /, Prometheus
// text-format metrics at /metrics (per-pipeline forecast, health, retrain,
// and latency families plus agent and durability counters), and — only
// with -pprof — the net/http/pprof handlers under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/faults"
	"github.com/acis-lab/larpredictor/internal/monitor"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/preddb"
	"github.com/acis-lab/larpredictor/internal/rrd"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

func main() {
	var (
		seed      = flag.Int64("seed", 2007, "workload seed")
		duration  = flag.Duration("duration", 24*time.Hour, "simulated monitoring duration")
		vmsFlag   = flag.String("vms", "VM2,VM3,VM4,VM5", "comma-separated VMs to monitor")
		window    = flag.Int("window", 5, "prediction window size m")
		train     = flag.Int("train", 60, "consolidated samples before initial training")
		audit     = flag.Int("audit", 12, "QA audit window (scored predictions)")
		thresh    = flag.Float64("threshold", 2.0, "QA normalized-MSE retrain threshold")
		quiet     = flag.Bool("quiet", false, "suppress per-hour progress")
		listen    = flag.String("listen", "", "serve the JSON status endpoint (/) and Prometheus /metrics on this address (e.g. :8080) while running")
		pprofOn   = flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on the status address")
		faultSpec = flag.String("faults", "", "fault-injection spec, e.g. 'spike:p=0.02,mag=40,on=VM3/*;dropout:p=0.05' (see internal/faults)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		cooldown  = flag.Duration("cooldown", 2*time.Hour, "simulated quarantine before restarting a panicked or Failed pipeline")
		stateDir  = flag.String("state", "", "state directory for durable snapshots and WALs; empty runs stateless")
		snapEvery = flag.Duration("snapshot-every", 6*time.Hour, "simulated interval between durable snapshots")
		shards    = flag.Int("shards", 0, "prediction-engine shards (0 = one per CPU)")
		backpress = flag.String("backpressure", "block", "engine ingest policy when a shard queue fills: block, drop-oldest, or reject")
	)
	flag.Parse()

	var vms []vmtrace.VMID
	for _, v := range strings.Split(*vmsFlag, ",") {
		vms = append(vms, vmtrace.VMID(strings.TrimSpace(v)))
	}
	opts := options{
		seed:         *seed,
		duration:     *duration,
		vms:          vms,
		window:       *window,
		trainSize:    *train,
		auditWin:     *audit,
		threshold:    *thresh,
		quiet:        *quiet,
		listen:       *listen,
		pprof:        *pprofOn,
		faultSpec:    *faultSpec,
		faultSeed:    *faultSeed,
		cooldown:     *cooldown,
		stateDir:     *stateDir,
		snapEvery:    *snapEvery,
		shards:       *shards,
		backpressure: *backpress,
	}
	if _, err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "monitord:", err)
		os.Exit(1)
	}
}

// options collects everything run needs; the zero-value hooks are inert.
type options struct {
	seed      int64
	duration  time.Duration
	vms       []vmtrace.VMID
	window    int
	trainSize int
	auditWin  int
	threshold float64
	quiet     bool
	listen    string
	pprof     bool
	faultSpec string
	faultSeed int64
	cooldown  time.Duration
	stateDir  string
	snapEvery time.Duration

	// shards is the prediction-engine shard count (0 = one per CPU);
	// backpressure is the engine ingest policy ("" or "block", "drop-oldest",
	// "reject").
	shards       int
	backpressure string

	// crashAfterHours, when positive, aborts the run with errSimulatedCrash
	// after that many simulated hours — no final snapshot, no cleanup. The
	// crash-recovery test uses it as an in-process SIGKILL.
	crashAfterHours int

	// addrReady, when set, receives the status listener's bound address
	// once it is serving (tests use :0 and need the real port).
	addrReady func(addr string)
	// panicHook, when set, runs at the start of every pipeline processing
	// slice, behind the supervisor's panic recovery. Tests use it to crash
	// a chosen pipeline and exercise the recovery path.
	panicHook func(p *pipeline, hour int)
}

// pipeline binds one (vm, metric) series to its streaming predictor and
// prediction-database key. The sharded engine owns the hot path: all rows
// for one pipeline hash to one shard, whose worker updates the feed
// bookkeeping below; the supervisor loop reads it only behind the engine's
// Drain barrier.
type pipeline struct {
	vm     vmtrace.VMID
	metric vmtrace.Metric
	online *core.Online
	key    preddb.Key
	// id is key.String(), cached as the engine stream ID.
	id string
	// lastSeen is the timestamp of the newest consolidated row already fed
	// to the predictor.
	lastSeen time.Time
	// pending records an issued forecast awaiting its observation.
	pending     float64
	pendingFor  time.Time
	hasPending  bool
	predictions int

	// Durability state: the observation WAL (nil when stateless), how many
	// WAL records the warm restart replayed, the records awaiting replay
	// through the engine, and the recovery outcome ("recovered", "cold",
	// "quarantined"; empty when stateless).
	wal         *durable.WAL
	walReplayed int
	replay      []durable.Record
	recovery    string

	// Supervision state (accessed only by the supervisor loop).
	// enginePanics mirrors the engine's cumulative panic count for this
	// stream so the fault-mapping pass can accumulate deltas into panics
	// without clobbering slice-level hook panics.
	quarantineUntil time.Time
	panics          int
	enginePanics    int
	restarts        int
	lastFault       string
}

// PipeStatus is the per-pipeline document published on the status endpoint
// and in the run summary. DegradedForecasts counts every forecast served
// below LAR except last-resort ones: the tournament and its in-rung
// selector.
type PipeStatus struct {
	Key               string  `json:"key"`
	Health            string  `json:"health"`
	Predictions       int     `json:"predictions"`
	Retrains          int     `json:"qa_retrains"`
	RetrainFailures   int     `json:"retrain_failures"`
	BreakerOpen       bool    `json:"breaker_open,omitempty"`
	BreakerTrips      int     `json:"breaker_trips,omitempty"`
	DegradedForecasts int     `json:"degraded_forecasts,omitempty"`
	FallbackForecasts int     `json:"fallback_forecasts,omitempty"`
	Panics            int     `json:"panics,omitempty"`
	Restarts          int     `json:"restarts,omitempty"`
	Quarantined       bool    `json:"quarantined,omitempty"`
	LastFault         string  `json:"last_fault,omitempty"`
	Recovery          string  `json:"recovery,omitempty"`
	WALReplayed       int     `json:"wal_replayed,omitempty"`
	ScoredMSE         float64 `json:"scored_mse,omitempty"`
	Scored            int     `json:"scored,omitempty"`
	// Spark is a unicode strip of recent observations for the text report
	// only; it is omitted from the JSON document.
	Spark string `json:"-"`
}

// runSummary is the final report run returns; tests assert on it instead of
// parsing the textual output.
type runSummary struct {
	Samples     int64
	Predictions int
	Retrains    int
	Pipes       []PipeStatus
}

// pipe returns the status for a key, or nil.
func (s *runSummary) pipe(key string) *PipeStatus {
	for i := range s.Pipes {
		if s.Pipes[i].Key == key {
			return &s.Pipes[i]
		}
	}
	return nil
}

// counters aggregates pipeline statistics for the status endpoint. It
// decouples the HTTP handler from the supervisor loop: the loop publishes a
// snapshot once per simulated hour.
type counters struct {
	mu          sync.Mutex
	predictions int
	retrains    int
	pipes       []PipeStatus
}

func (c *counters) snapshot() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	pipes := make([]PipeStatus, len(c.pipes))
	copy(pipes, c.pipes)
	return map[string]any{
		"predictions": c.predictions,
		"qa_retrains": c.retrains,
		"pipelines":   pipes,
	}
}

func (c *counters) publish(predictions, retrains int, pipes []PipeStatus) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.predictions = predictions
	c.retrains = retrains
	c.pipes = pipes
}

// newOnline builds one pipeline's streaming predictor, instrumented on a
// per-pipeline scope of the daemon registry (every metric the predictor
// registers carries a pipeline="VM/device/metric" label). Restarted
// pipelines reuse the same scope, so their counters continue rather than
// reset.
func newOnline(o options, reg *obs.Registry, key preddb.Key) (*core.Online, error) {
	scope := reg.With("pipeline", key.String())
	return core.NewOnline(core.OnlineConfig{
		Predictor:    core.DefaultConfig(o.window),
		TrainSize:    o.trainSize,
		AuditWindow:  o.auditWin,
		MSEThreshold: o.threshold,
	},
		core.WithMetrics(scope),
		core.WithTracer(obs.NewStageTimer(scope)),
	)
}

func run(out io.Writer, o options) (*runSummary, error) {
	if o.duration < 0 {
		return nil, fmt.Errorf("negative duration %v", o.duration)
	}
	traces := vmtrace.StandardTraceSet(o.seed)
	cfg := monitor.DefaultConfig(o.vms...)
	sampler := monitor.TraceSampler(traces)
	injectors, err := faults.ParseSpec(o.faultSpec, o.faultSeed, cfg.Start)
	if err != nil {
		return nil, err
	}
	sampler = faults.Wrap(sampler, injectors...)
	agent, err := monitor.NewAgent(cfg, sampler)
	if err != nil {
		return nil, err
	}
	db := preddb.New()
	if o.cooldown <= 0 {
		o.cooldown = 2 * time.Hour
	}

	// One registry instruments the whole daemon: the agent and prediction
	// DB register on the root, each (vm, metric) pipeline on a labeled
	// scope. /metrics renders all of it in Prometheus text format.
	reg := obs.NewRegistry()
	agent.Instrument(reg)
	db.Instrument(reg)
	restarts := reg.Counter1("larpredictor_pipeline_restarts_total",
		"Pipelines restarted by the supervisor after quarantine.")

	var stats counters
	var srv *http.Server
	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			return nil, fmt.Errorf("status listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		if o.pprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		mux.Handle("/", monitor.NewStatusHandler(agent, stats.snapshot))
		srv = &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "monitord: status server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "monitord: status endpoint on %s\n", ln.Addr())
		if o.addrReady != nil {
			o.addrReady(ln.Addr().String())
		}
	}

	var pipes []*pipeline
	for _, vm := range o.vms {
		for _, m := range vmtrace.Metrics() {
			key := preddb.Key{VM: string(vm), Device: deviceOf(m), Metric: string(m)}
			online, err := newOnline(o, reg, key)
			if err != nil {
				return nil, err
			}
			pipes = append(pipes, &pipeline{
				vm: vm, metric: m, online: online,
				key:      key,
				id:       key.String(),
				lastSeen: cfg.Start,
			})
		}
	}
	byKey := make(map[string]*pipeline, len(pipes))
	for _, p := range pipes {
		byKey[p.id] = p
	}

	step := cfg.ConsolidationInterval

	// Warm restart: restore databases and predictor state from the state
	// directory, replay WALs, and resume the simulation where the previous
	// process died. Corrupt files are quarantined, not fatal.
	var st *stateStore
	if o.stateDir != "" {
		if o.snapEvery <= 0 {
			o.snapEvery = 6 * time.Hour
		}
		st, err = openState(o.stateDir, fingerprintOptions(o), reg)
		if err != nil {
			return nil, err
		}
		db, err = st.recover(agent, db, pipes, o, os.Stderr)
		if err != nil {
			return nil, err
		}
		defer closeWALs(pipes)
	}

	qa, err := preddb.NewAssuror(db, o.auditWin, o.threshold, nil)
	if err != nil {
		return nil, err
	}

	// The sharded engine drives every pipeline's hot path: rows enqueue to
	// the owning shard, whose worker steps the predictor and runs the feed
	// bookkeeping below.
	policy := engine.Block
	if o.backpressure != "" {
		if policy, err = engine.ParsePolicy(o.backpressure); err != nil {
			return nil, err
		}
	}
	eng, err := engine.New(engine.Config{
		Shards:  o.shards,
		Policy:  policy,
		Metrics: reg,
		OnResult: func(r engine.Result) {
			// The per-row feed path, run on the owning shard's worker: the
			// observation into the prediction DB, then any new forecast back
			// into the DB. Live rows and WAL replay share it, so recovery
			// reproduces exactly what the crashed run did.
			p := byKey[r.ID]
			ts := time.Unix(r.TS, 0).UTC()
			db.PutObservation(p.key, ts, r.Value)
			if p.hasPending && ts.Equal(p.pendingFor) {
				// Forecast scored implicitly by the preddb QA.
				p.hasPending = false
			}
			if errors.Is(r.Err, engine.ErrPoisoned) {
				// The step panicked mid-row: like the old in-slice panic, the
				// row is logged but never marked seen.
				return
			}
			p.lastSeen = ts
			if r.Err != nil {
				return // not ready, or terminally Failed (supervisor acts on health)
			}
			p.pending = r.Pred.Value
			p.pendingFor = ts.Add(step)
			p.hasPending = true
			db.PutPrediction(p.key, p.pendingFor, r.Pred.Value, r.Pred.SelectedName)
			p.predictions++
		},
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	for _, p := range pipes {
		if err := eng.Register(p.id, p.online); err != nil {
			return nil, err
		}
	}

	// Warm restart, phase 2: replay the WAL records the snapshot missed
	// through the same engine path live rows take.
	for _, p := range pipes {
		for _, rec := range p.replay {
			if err := eng.IngestSample(engine.Sample{ID: p.id, TS: rec.TS, Value: rec.Value}); err != nil {
				return nil, fmt.Errorf("replay %s: %w", p.id, err)
			}
		}
		p.replay = nil
	}
	eng.Drain()

	hours := int(o.duration / time.Hour)
	hoursDone := int(agent.Now().Sub(cfg.Start) / time.Hour)
	lastSnap := agent.Now()

	var totalRetrains, totalPredictions int
	for h := hoursDone; h < hours; h++ {
		// Advance simulated time by one hour of 1-minute samples.
		if _, err := agent.Run(time.Hour); err != nil {
			return nil, err
		}
		now := agent.Now()

		// Supervise: restart pipelines whose quarantine expired, then
		// enqueue the live ones' new rows onto the engine. Shard workers
		// step the predictors concurrently; Drain is the barrier behind
		// which the loop reads the pipelines back.
		for _, p := range pipes {
			if !p.quarantineUntil.IsZero() {
				if now.Before(p.quarantineUntil) {
					continue
				}
				online, err := newOnline(o, reg, p.key)
				if err != nil {
					return nil, err
				}
				p.online = online
				if err := eng.Replace(p.id, online); err != nil {
					return nil, err
				}
				p.restarts++
				restarts.Inc()
				p.quarantineUntil = time.Time{}
				p.lastFault = ""
				p.hasPending = false
				// Skip the backlog: the poisoned window stays behind us.
				p.lastSeen = now
				continue // warm up from the next slice
			}
			if fault := runHook(o.panicHook, p, h); fault != "" {
				// A hook panic poisons the whole slice, like the old
				// in-process supervisor: the hour's rows are skipped and the
				// pipeline is flagged for quarantine below.
				p.panics++
				p.lastFault = fault
				continue
			}
			if err := enqueueSlice(eng, p, agent, now); err != nil {
				return nil, err
			}
		}
		eng.Drain()

		// Map engine supervision state back onto the pipelines, then
		// quarantine the ones that panicked or failed this slice.
		for _, p := range pipes {
			es, ok := eng.Stats(p.id)
			if !ok {
				continue
			}
			if es.Panics > p.enginePanics {
				p.panics += es.Panics - p.enginePanics
				p.enginePanics = es.Panics
			}
			switch es.Fault {
			case "":
			case engine.FaultFailed:
				p.lastFault = engine.FaultFailed
				if err := p.online.LastError(); err != nil {
					p.lastFault = fmt.Sprintf("%s (%v)", engine.FaultFailed, err)
				}
			default:
				p.lastFault = es.Fault
			}
		}
		for _, p := range pipes {
			if p.lastFault != "" && p.quarantineUntil.IsZero() {
				p.quarantineUntil = now.Add(o.cooldown)
			}
		}

		totalPredictions, totalRetrains = 0, 0
		for _, p := range pipes {
			totalPredictions += p.predictions
			totalRetrains += p.online.Retrains()
		}
		stats.publish(totalPredictions, totalRetrains, pipeStatuses(pipes, db, now))

		fired := qa.AuditAll()
		if !o.quiet {
			fmt.Fprintf(out, "[%s] simulated hour %2d: %d raw samples, %d predictions, %d keys flagged by QA\n",
				now.Format("15:04"), h+1, agent.Samples(), totalPredictions, len(fired))
		}

		if st != nil && now.Sub(lastSnap) >= o.snapEvery {
			if err := st.snapshot(agent, db, pipes, o); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
			lastSnap = now
		}
		if o.crashAfterHours > 0 && h+1 >= o.crashAfterHours {
			return nil, errSimulatedCrash
		}
	}

	// A final snapshot makes a completed run resumable with a longer
	// -duration and gives operators the terminal state on disk.
	if st != nil {
		if err := st.snapshot(agent, db, pipes, o); err != nil {
			return nil, fmt.Errorf("final snapshot: %w", err)
		}
	}

	totalPredictions, totalRetrains = 0, 0
	for _, p := range pipes {
		totalPredictions += p.predictions
		totalRetrains += p.online.Retrains()
	}
	summary := &runSummary{
		Samples:     agent.Samples(),
		Predictions: totalPredictions,
		Retrains:    totalRetrains,
		Pipes:       pipeStatuses(pipes, db, agent.Now()),
	}
	report(out, o, summary)

	// Graceful shutdown: the final snapshot above is what late pollers see;
	// Shutdown drains in-flight requests and closes the listener instead of
	// leaking it past the run.
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "monitord: status shutdown:", err)
		}
	}
	return summary, nil
}

// runHook invokes the test-only panic hook for one pipeline slice under its
// own recovery envelope, returning the fault string when the hook panicked
// and "" otherwise (including when no hook is set).
func runHook(hook func(*pipeline, int), p *pipeline, hour int) (fault string) {
	if hook == nil {
		return ""
	}
	defer func() {
		if r := recover(); r != nil {
			fault = fmt.Sprintf("panic: %v", r)
		}
	}()
	hook(p, hour)
	return ""
}

// enqueueSlice queries one pipeline's consolidated rows that landed since
// its last slice and enqueues them onto the engine, logging each row to the
// WAL before it is applied so a crash replays it through the very same
// path. The pipeline's feed bookkeeping runs in the engine's OnResult; the
// caller must Drain before reading it back.
func enqueueSlice(eng *engine.Engine, p *pipeline, agent *monitor.Agent, now time.Time) error {
	// Snapshot lastSeen before the first enqueue: the shard worker advances
	// it as rows process, and rows arrive in time order anyway.
	since := p.lastSeen
	s, err := agent.Profile(monitor.Query{
		VM: p.vm, Metric: p.metric,
		Start: since.Add(time.Second), End: now,
	})
	if err != nil {
		return nil // no data yet (warm-up, or a stream silenced by faults)
	}
	for i := 0; i < s.Len(); i++ {
		ts := s.TimeAt(i)
		if !ts.After(since) {
			continue
		}
		v := s.At(i)
		if p.wal != nil {
			_ = p.wal.Append(durable.Record{TS: ts.Unix(), Value: v})
		}
		if err := eng.IngestSample(engine.Sample{ID: p.id, TS: ts.Unix(), Value: v}); err != nil {
			return fmt.Errorf("ingest %s: %w", p.id, err)
		}
	}
	if p.wal != nil {
		_ = p.wal.Sync()
	}
	return nil
}

// pipeStatuses snapshots every pipeline for the status endpoint and the
// final summary. Called from the supervisor loop only, after all processing
// goroutines have joined.
func pipeStatuses(pipes []*pipeline, db *preddb.DB, now time.Time) []PipeStatus {
	out := make([]PipeStatus, 0, len(pipes))
	for _, p := range pipes {
		hs := p.online.HealthStats()
		st := PipeStatus{
			Key:               p.key.String(),
			Health:            hs.State.String(),
			Predictions:       p.predictions,
			Retrains:          hs.Retrains,
			RetrainFailures:   hs.RetrainFailures,
			BreakerOpen:       hs.BreakerOpen,
			BreakerTrips:      hs.BreakerTrips,
			DegradedForecasts: hs.TournamentForecasts + hs.SelectorForecasts,
			FallbackForecasts: hs.FallbackForecasts,
			Panics:            p.panics,
			Restarts:          p.restarts,
			Quarantined:       !p.quarantineUntil.IsZero() && now.Before(p.quarantineUntil),
			LastFault:         p.lastFault,
			Recovery:          p.recovery,
			WALReplayed:       p.walReplayed,
		}
		if mse, n, err := db.AuditMSE(p.key, 1<<30); err == nil && n > 0 {
			st.ScoredMSE, st.Scored = mse, n
			st.Spark = observationSparkline(db, p.key, 32)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// report renders the final textual summary.
func report(out io.Writer, o options, s *runSummary) {
	fmt.Fprintf(out, "\nmonitord summary after %s simulated (%d VMs, %d pipelines)\n",
		o.duration, len(o.vms), len(s.Pipes))
	fmt.Fprintf(out, "  raw samples collected: %d\n", s.Samples)
	fmt.Fprintf(out, "  predictions issued:    %d\n", s.Predictions)
	degraded := 0
	for _, p := range s.Pipes {
		if p.Health != core.Healthy.String() || p.BreakerTrips > 0 || p.Restarts > 0 {
			degraded++
		}
	}
	if degraded > 0 {
		fmt.Fprintf(out, "  pipelines with incidents: %d\n", degraded)
	}
	var recovered, quarantined, replayed int
	for _, p := range s.Pipes {
		switch p.Recovery {
		case recoveryRecovered:
			recovered++
		case recoveryQuarantined:
			quarantined++
		}
		replayed += p.WALReplayed
	}
	if recovered > 0 || quarantined > 0 {
		fmt.Fprintf(out, "  warm restart: %d recovered, %d quarantined, %d WAL records replayed\n",
			recovered, quarantined, replayed)
	}
	// Troubled pipelines must never scroll out of view: list them ahead of
	// the healthy ones before applying the line cap.
	order := make([]*PipeStatus, 0, len(s.Pipes))
	for i := range s.Pipes {
		if s.Pipes[i].Health != core.Healthy.String() || s.Pipes[i].BreakerTrips > 0 {
			order = append(order, &s.Pipes[i])
		}
	}
	for i := range s.Pipes {
		if s.Pipes[i].Health == core.Healthy.String() && s.Pipes[i].BreakerTrips == 0 {
			order = append(order, &s.Pipes[i])
		}
	}
	reported := 0
	for _, p := range order {
		if p.Scored == 0 {
			continue
		}
		if reported < 12 {
			fmt.Fprintf(out, "  %-28s %-8s %4d scored predictions, raw MSE %-10.4g %s\n",
				p.Key, p.Health, p.Scored, p.ScoredMSE, p.Spark)
		}
		reported++
	}
	if reported > 12 {
		fmt.Fprintf(out, "  ... and %d more pipelines\n", reported-12)
	}
	for _, p := range s.Pipes {
		if p.Panics > 0 || p.Restarts > 0 || p.Health == core.Failed.String() {
			fmt.Fprintf(out, "  supervisor: %-28s %s panics=%d restarts=%d %s\n",
				p.Key, p.Health, p.Panics, p.Restarts, p.LastFault)
		}
	}
}

// observationSparkline renders the last n observed values of a key as a
// compact unicode strip for ad-hoc inspection.
func observationSparkline(db *preddb.DB, key preddb.Key, n int) string {
	recs := db.Range(key, time.Unix(0, 0), time.Unix(1<<40, 0))
	var rows []rrd.Row
	for _, r := range recs {
		if r.HasObserved {
			rows = append(rows, rrd.Row{Values: []float64{r.Observed}})
		}
	}
	if len(rows) > n {
		rows = rows[len(rows)-n:]
	}
	return rrd.Sparkline(rows, 0)
}

// deviceOf extracts the paper's deviceID component from a metric name
// ("NIC1_received" → "NIC1"; CPU and memory metrics map to their subsystem).
func deviceOf(m vmtrace.Metric) string {
	s := string(m)
	if i := strings.IndexByte(s, '_'); i > 0 {
		return s[:i]
	}
	return s
}
