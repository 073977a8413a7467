package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

func newReplayEngine(tb testing.TB) *engine.Engine {
	tb.Helper()
	eng, err := engine.New(engine.Config{
		Shards:     1,
		QueueDepth: 1024,
		Policy:     engine.Block,
		NewStream: func(id string) (*core.Online, error) {
			return core.NewOnline(core.OnlineConfig{
				Predictor:    core.DefaultConfig(5),
				TrainSize:    20,
				AuditWindow:  6,
				MSEThreshold: 2.0,
			})
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// walSeedBytes builds a well-formed WAL holding three keyed batches for
// stream "fz" and returns the raw file bytes for fuzz seeding.
func walSeedBytes(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.wal")
	w, _, _, err := durable.OpenBatchWAL(path)
	if err != nil {
		f.Fatal(err)
	}
	var seq uint64
	for b := 0; b < 3; b++ {
		batch := make([]server.KeyedSample, 4)
		for i := range batch {
			seq++
			batch[i] = server.KeyedSample{
				Sample: engine.Sample{ID: "fz", TS: int64(seq), Value: float64(seq)},
				Source: "fuzz-src",
				Seq:    seq,
			}
		}
		if err := w.Append(appendWALBatch(nil, batch)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		f.Fatal(err)
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzWALReplay feeds arbitrary bytes to the daemon's WAL recovery path:
// whatever is on disk — torn tails, bit flips, CRC-valid records whose
// payload no longer decodes, foreign files — recovery must never panic,
// must quarantine or truncate the damage, and must be stable: replaying
// the repaired log a second time yields the identical record count and
// applied totals (nothing double-applies, nothing lost after repair).
func FuzzWALReplay(f *testing.F) {
	valid := walSeedBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn tail inside the last record
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip mid-log
	f.Add(flipped)
	f.Add([]byte("not a write-ahead log at all"))
	f.Add([]byte{})
	f.Add(valid[:16]) // bare header

	// CRC-valid framing around an undecodable payload: replay must
	// truncate at it rather than fail the boot.
	badPayload := func() []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, "bad.wal")
		w, _, _, err := durable.OpenBatchWAL(path)
		if err != nil {
			f.Fatal(err)
		}
		w.Append([]byte{0xFF, 0x01, 0x02})
		w.Sync()
		w.Close()
		raw, _ := os.ReadFile(path)
		return raw
	}()
	f.Add(append(append([]byte(nil), valid...), badPayload[16:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		replayOnce := func(dir string) (records int, applied uint64, ok bool) {
			ws, err := openWALStore(dir, nil, io.Discard)
			if err != nil {
				return 0, 0, false
			}
			defer ws.close()
			eng := newReplayEngine(t)
			defer eng.Close()
			recs, _, rerr := ws.replay(eng, io.Discard)
			if rerr != nil {
				return 0, 0, false
			}
			var total uint64
			for stream := range ws.dedup.State().Applied {
				n, _ := ws.dedup.Applied(stream)
				total += n
			}
			return recs, total, true
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "predictd.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs1, applied1, ok := replayOnce(dir)
		if !ok {
			return // refusing damaged input without panicking is a pass
		}
		// First recovery repaired the file in place (truncation and/or
		// quarantine); a second boot over the same directory must land on
		// exactly the same state.
		recs2, applied2, ok := replayOnce(dir)
		if !ok {
			t.Fatal("second replay failed over a repaired WAL")
		}
		if recs2 != recs1 || applied2 != applied1 {
			t.Fatalf("unstable recovery: first %d records/%d applied, second %d/%d",
				recs1, applied1, recs2, applied2)
		}
	})
}
