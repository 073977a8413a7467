package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"

	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
)

// WAL durability mode makes the 202 ack a real promise: every ingest batch
// is deduplicated against the idempotency table, appended to a CRC-framed
// batch WAL, and group-commit fsynced before any sample is enqueued — so a
// kill -9 after the ack can never lose the batch. The group commit is
// leader/follower with no timer: a commit that finds no fsync in flight
// fsyncs at once, and commits arriving during that fsync share the next
// one. Restart restores the last snapshot, then replays the WAL through the
// normal engine ingest path (torn or undecodable tails are truncated away,
// a foreign file is quarantined, exactly like monitord's recovery). A
// completed snapshot truncates the WAL, since everything it protected is
// now in the snapshot.
//
// Locking: request-path commits hold mu.RLock across dedup+append+enqueue;
// the snapshot path holds mu.Lock across drain+capture+reset, so no batch
// can land between "in the snapshot" and "in the WAL" — each acked sample
// is durably in exactly one of the two. A cluster handoff capture holds
// mu.Lock too, so the dedup coverage it ships matches the predictor state.
// A commit holds its RLock until its fsync completes, so a snapshot can never
// reset the WAL under an fsync that is still to cover it. commitMu
// additionally serializes dedup-mark+append so a concurrent duplicate (a
// client retrying a batch whose first send is still in flight) can never
// pass the dedup check twice; a mark only survives commitMu release if its
// record was appended.

// walStore owns predictd's write-ahead log, idempotency table, and group
// syncer.
type walStore struct {
	mu       sync.RWMutex // RLock: commit path; Lock: snapshot or handoff capture
	commitMu sync.Mutex   // serializes dedup marks with WAL appends
	wal      *durable.BatchWAL
	dedup    *server.Dedup
	sync     *groupSyncer

	// Commit scratch, reused under commitMu: the batch's fresh samples and
	// its encoded WAL record (Append copies the record, so the buffer is
	// free again once it returns).
	fresh []server.KeyedSample
	enc   []byte

	// pending holds the records recovered at open, until replay consumes
	// them.
	pending [][]byte

	appends     *obs.Counter
	dedupHits   *obs.Counter
	replayed    *obs.Counter
	quarantines *obs.Counter
}

func walPath(dir string) string { return filepath.Join(dir, "predictd.wal") }

// openWALStore opens (or creates) the state directory's WAL, recovering its
// intact records for replay. A file that is not a predictd WAL is
// quarantined and a fresh log started; a torn tail is truncated.
func openWALStore(dir string, reg *obs.Registry, logw io.Writer) (*walStore, error) {
	ws := &walStore{dedup: server.NewDedup()}
	if reg != nil {
		ws.appends = reg.Counter1("predictd_wal_appends_total",
			"Ingest batches appended to the write-ahead log.")
		ws.dedupHits = reg.Counter1("predictd_dedup_hits_total",
			"Keyed samples skipped as already-applied duplicates.")
		ws.replayed = reg.Counter1("predictd_wal_replayed_records_total",
			"WAL records replayed through the engine on warm restart.")
		ws.quarantines = reg.Counter1("predictd_wal_quarantines_total",
			"WAL files quarantined or tails truncated during recovery.")
	}
	path := walPath(dir)
	w, recs, truncated, err := durable.OpenBatchWAL(path)
	if errors.Is(err, durable.ErrWALFormat) {
		ws.quarantines.Inc()
		moved, qerr := durable.Quarantine(path)
		if qerr != nil {
			return nil, fmt.Errorf("quarantine foreign WAL: %w", qerr)
		}
		fmt.Fprintf(logw, "predictd: quarantined %s -> %s: %v\n", path, moved, err)
		w, recs, truncated, err = durable.OpenBatchWAL(path)
	}
	if err != nil {
		return nil, err
	}
	if truncated > 0 {
		ws.quarantines.Inc()
		fmt.Fprintf(logw, "predictd: truncated %d bytes of torn WAL tail from %s\n", truncated, path)
	}
	ws.wal = w
	ws.pending = recs
	ws.sync = newGroupSyncer(w.Sync, logw)
	return ws, nil
}

// samplePool recycles the engine batches commits build; IngestBatch does not
// retain its slice.
var samplePool = sync.Pool{New: func() any { return new([]engine.Sample) }}

// ingest is the request-path commit, wired as server.Config.Ingest: dedup,
// durable append, group-commit fsync, then the normal engine enqueue. When
// it returns without error the batch is on disk — the 202 the handler sends
// is crash-safe.
func (ws *walStore) ingest(eng *engine.Engine, batch []server.KeyedSample) (accepted, deduped int, err error) {
	ws.mu.RLock()
	defer ws.mu.RUnlock()

	ws.commitMu.Lock()
	fresh := ws.fresh[:0]
	for _, ks := range batch {
		if ks.Source != "" && ks.Seq != 0 && !ws.dedup.Apply(ks.ID, ks.Source, ks.Seq) {
			deduped++
			ws.dedupHits.Inc()
			continue
		}
		fresh = append(fresh, ks)
	}
	ws.fresh = fresh
	if len(fresh) == 0 {
		// Nothing to commit, but a duplicate may name a record that is
		// still waiting for its fsync, or whose fsync failed: ack only
		// once everything appended so far is durable.
		gen := ws.sync.last()
		ws.commitMu.Unlock()
		return 0, deduped, ws.sync.wait(gen)
	}
	ws.enc = appendWALBatch(ws.enc[:0], fresh)
	if aerr := ws.wal.Append(ws.enc); aerr != nil {
		// The batch did not commit: withdraw the marks so a client
		// retry is admitted rather than silently deduplicated away.
		for _, ks := range fresh {
			if ks.Source != "" && ks.Seq != 0 {
				ws.dedup.Revert(ks.ID, ks.Source, ks.Seq)
			}
		}
		ws.commitMu.Unlock()
		return 0, deduped, aerr
	}
	ws.appends.Inc()
	gen := ws.sync.noteAppend()
	// fresh is reused by the next commit once commitMu is released, so
	// the engine batch is copied out first.
	sp := samplePool.Get().(*[]engine.Sample)
	samples := (*sp)[:0]
	for _, ks := range fresh {
		samples = append(samples, ks.Sample)
	}
	ws.commitMu.Unlock()
	defer func() {
		*sp = samples
		samplePool.Put(sp)
	}()

	if serr := ws.sync.wait(gen); serr != nil {
		// The fsync failed: durability is unknown, so refuse the ack. The
		// marks stay — the record may well be on disk, and replay after a
		// restart applies it.
		return 0, deduped, serr
	}
	accepted, err = eng.IngestBatch(samples)
	// Under the Block policy (which WAL mode requires) the only enqueue
	// failure is a closing engine; the batch is already durable, so replay
	// applies it after restart and the client's retry dedups cleanly.
	return accepted, deduped, err
}

// replay feeds the records recovered at open through the normal engine
// ingest path, marking idempotency keys as it goes, and drains the engine
// so restored forecasts are served before the listener opens. A record
// whose payload no longer decodes ends the replay: the WAL is truncated
// back to the last good record, mirroring torn-tail recovery.
func (ws *walStore) replay(eng *engine.Engine, logw io.Writer) (records, samples int, err error) {
	for i, rec := range ws.pending {
		batch, derr := decodeWALBatch(rec)
		if derr != nil {
			ws.quarantines.Inc()
			fmt.Fprintf(logw, "predictd: WAL record %d undecodable (%v); truncating %d trailing records\n",
				i, derr, len(ws.pending)-i)
			if terr := ws.wal.TruncateRecords(i); terr != nil {
				return records, samples, terr
			}
			break
		}
		enqueue := make([]engine.Sample, 0, len(batch))
		for _, ks := range batch {
			if ks.Source != "" && ks.Seq != 0 && !ws.dedup.Apply(ks.ID, ks.Source, ks.Seq) {
				continue // already covered by the snapshot or an earlier record
			}
			enqueue = append(enqueue, ks.Sample)
		}
		if len(enqueue) > 0 {
			if _, ierr := eng.IngestBatch(enqueue); ierr != nil {
				return records, samples, fmt.Errorf("replay record %d: %w", i, ierr)
			}
			samples += len(enqueue)
		}
		records++
		ws.replayed.Inc()
	}
	ws.pending = nil
	eng.Drain()
	return records, samples, nil
}

// truncate resets the WAL after a completed snapshot. Callers hold mu.Lock.
func (ws *walStore) truncate() error { return ws.wal.Reset() }

// snapshot captures a coherent snapshot+WAL pair. With new commits held
// out by the exclusive lock, the engine is drained so every WAL-covered
// sample is reflected in predictor state, the snapshot (including the
// idempotency table) is written atomically, and only then is the WAL
// reset: an acked sample is durably in the snapshot or the WAL at every
// instant, never neither.
func (ws *walStore) snapshot(st *snapStore, eng *engine.Engine, cache *server.ResultCache,
	hist *server.HistoryStore) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	// After a failed fsync the dedup table holds marks for records whose
	// durability is unknown. A snapshot would keep those marks and reset
	// the WAL, losing the records for good; only a restart's replay may
	// settle them.
	if err := ws.sync.failed(); err != nil {
		return err
	}
	eng.Drain()
	if err := st.save(eng, cache, hist, ws.dedup); err != nil {
		return err
	}
	return ws.truncate()
}

// close fails any commit still waiting on the syncer and closes the log.
func (ws *walStore) close() error {
	ws.sync.close()
	return ws.wal.Close()
}

// ---- group-commit syncer ----

var errSyncerClosed = errors.New("predictd: WAL syncer closed")

// groupSyncer is a leader/follower group commit with no goroutine or timer
// of its own. A committer that finds no fsync in flight becomes the leader
// and fsyncs at once, covering every append noted so far. Committers that
// arrive while that fsync runs wait, and the next leader's single fsync
// covers all of them: the fsync's own duration is the commit window, so an
// idle commit pays one fsync and a loaded log still shares each fsync
// across every commit that queued behind it.
//
// The first fsync failure is latched. After a failed fsync the kernel may
// drop the dirty pages it could not write, so a later successful fsync
// proves nothing about them: every commit not covered by an earlier
// successful fsync gets the error until the daemon restarts and replays.
type groupSyncer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	syncFn func() error
	logw   io.Writer

	appended uint64 // generation of the newest append
	synced   uint64 // generation covered by the last successful fsync
	syncing  bool   // a leader's fsync is in flight
	err      error  // first fsync failure, sticky
	closed   bool
}

func newGroupSyncer(syncFn func() error, logw io.Writer) *groupSyncer {
	g := &groupSyncer{syncFn: syncFn, logw: logw}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// noteAppend registers an append and returns its generation for wait. The
// caller has already seen Append return, so an fsync started after this
// covers the record.
func (g *groupSyncer) noteAppend() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.appended++
	return g.appended
}

// last returns the generation of the newest append.
func (g *groupSyncer) last() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.appended
}

// wait blocks until a successful fsync covers gen, leading that fsync
// itself if none is in flight.
func (g *groupSyncer) wait(gen uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.synced < gen {
		switch {
		case g.err != nil:
			return g.err
		case g.closed:
			return errSyncerClosed
		case g.syncing:
			g.cond.Wait()
		default:
			g.lead()
		}
	}
	return nil
}

// lead runs one fsync covering every append noted so far. It is called
// with mu held and releases it for the fsync.
func (g *groupSyncer) lead() {
	target := g.appended
	g.syncing = true
	g.mu.Unlock()
	err := g.syncFn()
	g.mu.Lock()
	g.syncing = false
	if err == nil {
		g.synced = target
	} else {
		g.err = err // wait leads only while err is nil: this is the first
		fmt.Fprintf(g.logw, "predictd: WAL fsync failed; refusing acks until restart: %v\n", err)
	}
	g.cond.Broadcast()
}

// failed returns the latched fsync error, if any.
func (g *groupSyncer) failed() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// close fails every commit still waiting for an fsync.
func (g *groupSyncer) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// ---- WAL record codec ----

// Record payload: version byte, uvarint sample count, then per sample:
// uvarint stream length + bytes, zigzag-varint TS, 8-byte LE float bits,
// uvarint source length + bytes, uvarint seq. The framing layer already
// checksums the bytes; this codec only needs to be unambiguous and strict.
const walBatchVersion = 1

// maxWALBatchSamples caps a decoded batch; a count beyond it means the
// record is not ours even though the checksum verified.
const maxWALBatchSamples = 1 << 20

// appendWALBatch appends batch's record payload to buf.
func appendWALBatch(buf []byte, batch []server.KeyedSample) []byte {
	buf = append(buf, walBatchVersion)
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for _, ks := range batch {
		buf = binary.AppendUvarint(buf, uint64(len(ks.ID)))
		buf = append(buf, ks.ID...)
		buf = binary.AppendVarint(buf, ks.TS)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ks.Value))
		buf = binary.AppendUvarint(buf, uint64(len(ks.Source)))
		buf = append(buf, ks.Source...)
		buf = binary.AppendUvarint(buf, ks.Seq)
	}
	return buf
}

var errWALDecode = errors.New("predictd: malformed WAL batch record")

func decodeWALBatch(payload []byte) ([]server.KeyedSample, error) {
	if len(payload) == 0 || payload[0] != walBatchVersion {
		return nil, errWALDecode
	}
	p := payload[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > maxWALBatchSamples {
		return nil, errWALDecode
	}
	p = p[n:]
	// A sample needs at least 12 encoded bytes; a count the payload cannot
	// hold is corruption, caught here before it sizes an allocation.
	if count*12 > uint64(len(p)) {
		return nil, errWALDecode
	}
	readString := func() (string, bool) {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return "", false
		}
		s := string(p[n : n+int(l)])
		p = p[n+int(l):]
		return s, true
	}
	batch := make([]server.KeyedSample, 0, count)
	for i := uint64(0); i < count; i++ {
		var ks server.KeyedSample
		var ok bool
		if ks.ID, ok = readString(); !ok || ks.ID == "" {
			return nil, errWALDecode
		}
		ts, n := binary.Varint(p)
		if n <= 0 {
			return nil, errWALDecode
		}
		p = p[n:]
		if len(p) < 8 {
			return nil, errWALDecode
		}
		ks.TS = ts
		ks.Value = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		if ks.Source, ok = readString(); !ok {
			return nil, errWALDecode
		}
		seq, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errWALDecode
		}
		p = p[n:]
		ks.Seq = seq
		batch = append(batch, ks)
	}
	if len(p) != 0 {
		return nil, errWALDecode
	}
	return batch, nil
}
