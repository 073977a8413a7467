package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// BenchmarkIngestWAL measures the ack path of one ingest batch in both
// durability modes: mode=snapshot is the bare engine enqueue, mode=wal adds
// the dedup check, WAL append, and group-commit fsync the 202 waits on.
// mode=wal runs under RunParallel, where commits arriving during an fsync
// share the next one; mode=wal-serial has a single writer, so every commit
// pays a whole fsync — the idle ack latency RunParallel hides. A WAL ack is
// bounded below by the disk's fsync, not by a multiple of snapshot mode: on
// a 2-vCPU AMD EPYC with a ~30 µs fsync, mode=wal and mode=wal-serial both
// measured ~30–45 µs/op against ~2.6 µs for mode=snapshot, 10–15×. CI's
// bench-regression job guards all three via benchguard.
func BenchmarkIngestWAL(b *testing.B) {
	const batchLen = 10
	for _, mode := range []string{"snapshot", "wal", "wal-serial"} {
		b.Run("mode="+mode, func(b *testing.B) {
			eng := newReplayEngine(b)
			defer eng.Close()
			var ws *walStore
			if mode != "snapshot" {
				var err error
				ws, err = openWALStore(b.TempDir(), nil, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				defer ws.close()
			}
			var worker atomic.Int64
			writer := func(next func() bool) {
				w := worker.Add(1)
				source := fmt.Sprintf("bench-src-%d", w)
				stream := fmt.Sprintf("bench/stream-%d", w)
				var seq uint64
				batch := make([]server.KeyedSample, batchLen)
				for next() {
					for i := range batch {
						seq++
						batch[i] = server.KeyedSample{
							Sample: engine.Sample{ID: stream, TS: int64(seq), Value: float64(seq % 13)},
							Source: source,
							Seq:    seq,
						}
					}
					if ws != nil {
						if _, _, err := ws.ingest(eng, batch); err != nil {
							b.Fatal(err)
						}
					} else {
						samples := make([]engine.Sample, batchLen)
						for i, ks := range batch {
							samples[i] = ks.Sample
						}
						if _, err := eng.IngestBatch(samples); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if mode == "wal-serial" {
				n := 0
				writer(func() bool { n++; return n <= b.N })
				return
			}
			b.RunParallel(func(pb *testing.PB) { writer(pb.Next) })
		})
	}
}
