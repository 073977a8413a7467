// Command predictd serves the sharded prediction engine over HTTP/JSON: a
// networked front end for callers that stream observations in and read
// forecasts back instead of linking the library.
//
//	predictd -listen :8100 -state /var/lib/predictd
//
// Endpoints:
//
//	POST /v1/ingest            one sample or a batch; 202 on acceptance,
//	                           429 + Retry-After when the reject policy sheds
//	                           load, 503 while draining
//	GET  /v1/forecast/{stream} the stream's latest forecast and health
//	GET  /v1/streams           paginated per-stream statistics
//	GET  /metrics              Prometheus text-format metrics
//	GET  /healthz              readiness; flips to 503 during drain
//
// Streams are created on first ingest — no registration step. With -state the
// daemon snapshots every stream's predictor and latest forecast periodically
// and again during graceful shutdown, so a restart serves the previous run's
// forecasts immediately and keeps training from where it left off. With
// -durability=wal every acked ingest batch is additionally fsynced to a
// write-ahead log before the 202 goes out, and client-assigned (source, seq)
// keys are deduplicated so retried batches apply exactly once — a kill -9
// loses nothing that was acknowledged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/acis-lab/larpredictor/internal/cluster"
	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/tournament"
	"github.com/acis-lab/larpredictor/internal/wire"
)

func main() {
	var (
		listen     = flag.String("listen", ":8100", "HTTP listen address")
		binListen  = flag.String("binary-listen", "", "binary ingest listen address (framed wire protocol); empty disables it")
		shards     = flag.Int("shards", 0, "prediction-engine shards (0 = one per CPU)")
		queueDepth = flag.Int("queue-depth", 1024, "per-shard ingest queue depth")
		maxBatch   = flag.Int("max-batch", 0, "max samples a shard worker steps per drain (0 = engine default)")
		backpress  = flag.String("backpressure", "block", "ingest policy when a shard queue fills: block, drop-oldest, or reject")
		window     = flag.Int("window", 5, "prediction window size m")
		train      = flag.Int("train", 60, "samples before initial training")
		audit      = flag.Int("audit", 12, "QA audit window (scored predictions)")
		thresh     = flag.Float64("threshold", 2.0, "QA normalized-MSE retrain threshold")
		stateDir   = flag.String("state", "", "state directory for durable snapshots; empty runs stateless")
		snapEvery  = flag.Duration("snapshot-every", 5*time.Minute, "interval between durable snapshots (0 disables periodic snapshots)")
		durability = flag.String("durability", "snapshot", "durability mode: snapshot (acks best-effort until the next snapshot) or wal (every ack fsynced to a write-ahead log; requires -state and -backpressure=block)")
		inflight   = flag.Int("max-inflight", 256, "max concurrently served /v1 requests before shedding with 503")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request handler timeout")
		maxBody    = flag.Int64("max-body", 1<<20, "max ingest request body bytes")

		historyRaw   = flag.Int("history-raw", 512, "per-stream raw forecast-history ring size in samples")
		historyTiers = flag.String("history-tiers", "", "consolidated history tiers as stepsxrows,... (e.g. 16x360,256x360); empty uses the defaults")
		bulkStreams  = flag.Int("max-bulk-streams", 256, "max streams one bulk forecast or subscribe request may name")

		nodeID      = flag.String("node-id", "", "this node's cluster member ID; empty runs standalone")
		peers       = flag.String("peers", "", "static cluster membership as id=host:port,... (must include -node-id's entry)")
		replication = flag.Int("replication", 2, "copies of each stream across the cluster (owner + replication-1 followers)")
		hbEvery     = flag.Duration("heartbeat-every", 500*time.Millisecond, "cluster heartbeat probe interval")
		suspectN    = flag.Int("suspect-after", 3, "consecutive missed heartbeats before a peer is suspected")
		downAfter   = flag.Duration("down-after", 2*time.Second, "time a peer stays suspect before it is confirmed down")
	)
	flag.Parse()

	opts := options{
		listen:       *listen,
		binaryListen: *binListen,
		shards:       *shards,
		queueDepth:   *queueDepth,
		maxBatch:     *maxBatch,
		backpressure: *backpress,
		window:       *window,
		trainSize:    *train,
		auditWin:     *audit,
		threshold:    *thresh,
		stateDir:     *stateDir,
		snapEvery:    *snapEvery,
		durability:   *durability,
		maxInFlight:  *inflight,
		reqTimeout:   *reqTimeout,
		maxBody:      *maxBody,
		historyRaw:   *historyRaw,
		historyTiers: *historyTiers,
		bulkStreams:  *bulkStreams,
		nodeID:       *nodeID,
		peers:        *peers,
		replication:  *replication,
		hbEvery:      *hbEvery,
		suspectAfter: *suspectN,
		downAfter:    *downAfter,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "predictd:", err)
		os.Exit(1)
	}
}

// options collects everything run needs; the zero-value hooks are inert.
type options struct {
	listen       string
	binaryListen string
	shards       int
	queueDepth   int
	maxBatch     int
	backpressure string
	window       int
	trainSize    int
	auditWin     int
	threshold    float64
	stateDir     string
	snapEvery    time.Duration
	durability   string
	maxInFlight  int
	reqTimeout   time.Duration
	maxBody      int64

	// Forecast-history shape: raw ring size and "stepsxrows,..." tier spec
	// (empty means server defaults). Sizing is outside the snapshot
	// fingerprint — a resized daemon clamps restored rings instead of cold
	// starting.
	historyRaw   int
	historyTiers string
	bulkStreams  int

	// Cluster mode: nodeID empty means standalone; otherwise peers names
	// the full static membership (including this node) and the daemon
	// routes, replicates, and fails over per the internal/cluster design.
	nodeID       string
	peers        string
	replication  int
	hbEvery      time.Duration
	suspectAfter int
	downAfter    time.Duration

	// addrReady, when set, receives the bound listen address once the
	// daemon is accepting connections — tests listen on :0 and learn the
	// port this way.
	addrReady func(addr string)
	// binaryAddrReady mirrors addrReady for the binary ingest listener.
	binaryAddrReady func(addr string)
	// stepHook, when set, runs on the shard worker before every predictor
	// step — the chaos hook tests use to stall or poison a stream.
	stepHook func(id string)
	// shutdownTimeout bounds the graceful drain; zero means 15s.
	shutdownTimeout time.Duration
}

// parseHistoryTiers parses the -history-tiers flag ("16x360,256x360") into
// tier specs; empty input selects the server defaults.
func parseHistoryTiers(s string) ([]server.HistoryTier, error) {
	if s == "" {
		return nil, nil
	}
	var tiers []server.HistoryTier
	for _, part := range strings.Split(s, ",") {
		var t server.HistoryTier
		if _, err := fmt.Sscanf(part, "%dx%d", &t.Steps, &t.Rows); err != nil {
			return nil, fmt.Errorf("bad history tier %q (want stepsxrows, e.g. 16x360)", part)
		}
		tiers = append(tiers, t)
	}
	return tiers, nil
}

func parsePolicy(s string) (engine.Policy, error) {
	switch s {
	case "block", "":
		return engine.Block, nil
	case "drop-oldest":
		return engine.DropOldest, nil
	case "reject":
		return engine.Reject, nil
	default:
		return 0, fmt.Errorf("unknown backpressure policy %q (want block, drop-oldest, or reject)", s)
	}
}

// run assembles cache, engine, durable store, and HTTP server, then serves
// until ctx is cancelled and performs the graceful drain: stop accepting,
// drain the engine, snapshot, close. It returns nil after a clean shutdown.
func run(ctx context.Context, out io.Writer, o options) error {
	policy, err := parsePolicy(o.backpressure)
	if err != nil {
		return err
	}
	walMode := false
	switch o.durability {
	case "", "snapshot":
	case "wal":
		// A WAL ack is a promise the sample will be applied, so the engine
		// must not be allowed to shed a committed batch: only the Block
		// policy guarantees enqueue-after-commit succeeds.
		if o.stateDir == "" {
			return errors.New("-durability=wal requires -state")
		}
		if policy != engine.Block {
			return errors.New("-durability=wal requires -backpressure=block")
		}
		walMode = true
	default:
		return fmt.Errorf("unknown durability mode %q (want snapshot or wal)", o.durability)
	}
	var members []cluster.Member
	if o.nodeID != "" {
		// Replication ships (source, seq) idempotency keys and warm handoff
		// ships dedup windows — both are WAL-mode machinery, and failover
		// without a durable local copy would silently cold-start streams.
		if !walMode {
			return errors.New("-node-id requires -durability=wal")
		}
		members, err = cluster.ParseMembers(o.peers)
		if err != nil {
			return err
		}
	}
	newStream := func(id string) (*core.Online, error) {
		// Drift demotion stays on, as the removed -drift flag defaulted:
		// turning it off would change every served forecast.
		return core.NewOnline(core.OnlineConfig{
			Predictor:    core.DefaultConfig(o.window),
			TrainSize:    o.trainSize,
			AuditWindow:  o.auditWin,
			MSEThreshold: o.threshold,
			Drift:        &tournament.DriftConfig{},
		})
	}

	tiers, err := parseHistoryTiers(o.historyTiers)
	if err != nil {
		return err
	}
	hist, err := server.NewHistoryStore(server.HistoryConfig{RawRows: o.historyRaw, Tiers: tiers})
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	cache := server.NewResultCache()
	eng, err := engine.New(engine.Config{
		Shards:     o.shards,
		QueueDepth: o.queueDepth,
		MaxBatch:   o.maxBatch,
		Policy:     policy,
		NewStream:  newStream,
		// Every result feeds both read-path stores on the shard worker: the
		// latest-forecast cache and the multi-resolution history rings.
		OnResult: func(r engine.Result) {
			cache.Record(r)
			hist.Record(r)
		},
		StepHook: o.stepHook,
		Metrics:  reg,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	// The binary ingest listener binds before the cluster node is built so
	// heartbeats can advertise its concrete address to peers; it starts
	// serving only once the HTTP server below exists to share its ingest
	// pipeline.
	var bln net.Listener
	if o.binaryListen != "" {
		bln, err = net.Listen("tcp", o.binaryListen)
		if err != nil {
			return fmt.Errorf("binary listen: %w", err)
		}
		defer bln.Close()
	}

	var st *snapStore
	var ws *walStore
	var node *cluster.Node
	if o.stateDir != "" {
		st, err = openSnapStore(o.stateDir, fingerprintOptions(o), reg)
		if err != nil {
			return err
		}
		if walMode {
			// Open the WAL before restoring so the snapshot's dedup table
			// is in place when replay runs.
			ws, err = openWALStore(o.stateDir, reg, os.Stderr)
			if err != nil {
				return err
			}
			defer ws.close()
		}
		var dedup *server.Dedup
		if ws != nil {
			dedup = ws.dedup
		}
		restored, rerr := st.restore(eng, cache, hist, newStream, dedup, os.Stderr)
		if rerr != nil {
			return rerr
		}
		if restored > 0 {
			fmt.Fprintf(out, "predictd: warm restart: %d streams restored from %s\n", restored, o.stateDir)
		}
		if o.nodeID != "" {
			binaryAddr := ""
			if bln != nil {
				binaryAddr = bln.Addr().String()
			}
			node, err = cluster.New(cluster.Config{
				Self:           o.nodeID,
				BinaryAddr:     binaryAddr,
				Members:        members,
				Replication:    o.replication,
				HeartbeatEvery: o.hbEvery,
				SuspectAfter:   o.suspectAfter,
				DownAfter:      o.downAfter,
				Engine:         eng,
				Cache:          cache,
				Dedup:          ws.dedup,
				Commits:        &ws.mu,
				NewStream:      newStream,
				History:        hist,
				Registry:       reg,
				Logw:           os.Stderr,
			})
			if err != nil {
				return err
			}
			// Warm handoff sits between snapshot restore and WAL replay:
			// peers that served this node's streams while it was away ship
			// their predictor state and dedup coverage, the coverage merges
			// into the local table, and replay then applies exactly the
			// samples nobody has — every acked sample lands once, whether it
			// was acked here before the crash or by the failover owner.
			hctx, hcancel := context.WithTimeout(ctx, 30*time.Second)
			if got := node.PullHandoff(hctx); got > 0 {
				fmt.Fprintf(out, "predictd: warm handoff: %d streams pulled from peers\n", got)
			}
			hcancel()
		}
		if ws != nil {
			recs, samples, rerr := ws.replay(eng, os.Stderr)
			if rerr != nil {
				return fmt.Errorf("WAL replay: %w", rerr)
			}
			if recs > 0 {
				fmt.Fprintf(out, "predictd: replayed %d WAL records (%d samples) from %s\n",
					recs, samples, o.stateDir)
			}
		}
	}

	// saveState is the one snapshot entry point; in WAL mode it runs the
	// coherent drain→snapshot→WAL-reset sequence.
	saveState := func() error {
		if ws != nil {
			return ws.snapshot(st, eng, cache, hist)
		}
		return st.save(eng, cache, hist, nil)
	}

	scfg := server.Config{
		Engine:         eng,
		Cache:          cache,
		History:        hist,
		Registry:       reg,
		MaxInFlight:    o.maxInFlight,
		RequestTimeout: o.reqTimeout,
		MaxBodyBytes:   o.maxBody,
		MaxBulkStreams: o.bulkStreams,
		OnDrain: func() {
			if st == nil {
				return
			}
			if serr := saveState(); serr != nil {
				fmt.Fprintln(os.Stderr, "predictd: final snapshot:", serr)
			}
		},
	}
	if ws != nil {
		scfg.Ingest = func(batch []server.KeyedSample) (int, int, error) {
			return ws.ingest(eng, batch)
		}
		scfg.Applied = ws.dedup.Applied
	}
	if node != nil {
		scfg.Cluster = node
		scfg.ClusterHandler = node.Handler()
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	if node != nil {
		// Wired before the listener opens: heartbeats answer 503 as soon as
		// the drain flips, telling peers to fail over before connections
		// start refusing.
		node.SetDraining(srv.Draining)
	}

	if bln != nil {
		wsrv, werr := wire.NewServer(wire.ServerConfig{
			Ingest:        srv.BinaryIngest,
			Draining:      srv.Draining,
			MaxFrameBytes: int(o.maxBody),
			Registry:      reg,
			Logw:          os.Stderr,
		})
		if werr != nil {
			return werr
		}
		go func() {
			// A dying binary listener degrades to HTTP-only ingest; it does
			// not take the daemon down.
			if serr := wsrv.Serve(bln); serr != nil {
				fmt.Fprintln(os.Stderr, "predictd: binary listener:", serr)
			}
		}()
		defer wsrv.Close()
		fmt.Fprintf(out, "predictd: binary ingest on %s\n", bln.Addr())
		if o.binaryAddrReady != nil {
			o.binaryAddrReady(bln.Addr().String())
		}
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	mode := "snapshot"
	if walMode {
		mode = "wal"
	}
	fmt.Fprintf(out, "predictd: serving on %s (policy %s, durability %s)\n", ln.Addr(), o.backpressure, mode)
	if node != nil {
		fmt.Fprintf(out, "predictd: cluster node %s of %d members (replication %d)\n",
			o.nodeID, len(members), o.replication)
	}
	if o.addrReady != nil {
		o.addrReady(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if node != nil {
		// Probers and replicators start once the listener is up, so peers'
		// first heartbeats of this node succeed.
		node.Start()
		defer node.Close()
	}

	var snapC <-chan time.Time
	if st != nil && o.snapEvery > 0 {
		t := time.NewTicker(o.snapEvery)
		defer t.Stop()
		snapC = t.C
	}

	for {
		select {
		case <-snapC:
			if serr := saveState(); serr != nil {
				fmt.Fprintln(os.Stderr, "predictd: periodic snapshot:", serr)
			}
		case err := <-serveErr:
			// Serve only returns early on a listener error.
			return fmt.Errorf("serve: %w", err)
		case <-ctx.Done():
			timeout := o.shutdownTimeout
			if timeout == 0 {
				timeout = 15 * time.Second
			}
			shCtx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			// Shutdown stops accepting, waits out in-flight requests,
			// drains the engine, then snapshots via OnDrain.
			err := srv.Shutdown(shCtx)
			<-serveErr
			if cerr := eng.Close(); err == nil {
				err = cerr
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				return fmt.Errorf("shutdown: %w", err)
			}
			es := eng.EngineStats()
			fmt.Fprintf(out, "predictd: drained and stopped (%d streams, %d samples processed)\n",
				es.Streams, es.Processed)
			return nil
		}
	}
}
