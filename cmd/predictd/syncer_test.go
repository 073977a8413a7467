package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// gatedSync is a fake fsync: every call reports on entered and, when gate is
// set, blocks until the test sends that call's outcome on gate.
type gatedSync struct {
	calls   atomic.Int64
	entered chan struct{}
	gate    chan error
}

func newGatedSync(gated bool) *gatedSync {
	// Buffered past any test's fsync count, so a fake whose entries the
	// test does not read never blocks.
	s := &gatedSync{entered: make(chan struct{}, 64)}
	if gated {
		s.gate = make(chan error)
	}
	return s
}

func (s *gatedSync) sync() error {
	s.calls.Add(1)
	s.entered <- struct{}{}
	if s.gate == nil {
		return nil
	}
	return <-s.gate
}

// waitAll starts wait(gen) for each gen and returns their outcomes.
func waitAll(g *groupSyncer, gens []uint64) <-chan error {
	out := make(chan error, len(gens))
	var wg sync.WaitGroup
	for _, gen := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out <- g.wait(gen)
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

func TestGroupSyncerIdleCommitSyncsOnce(t *testing.T) {
	fs := newGatedSync(false)
	g := newGroupSyncer(fs.sync, io.Discard)
	gen := g.noteAppend()
	if err := g.wait(gen); err != nil {
		t.Fatal(err)
	}
	// No timer runs behind the commit: the committer itself fsynced, once,
	// and a covered generation never fsyncs again.
	if err := g.wait(gen); err != nil {
		t.Fatal(err)
	}
	if n := fs.calls.Load(); n != 1 {
		t.Fatalf("idle commit ran %d fsyncs, want 1", n)
	}
}

func TestGroupSyncerFoldsArrivalsIntoNextFsync(t *testing.T) {
	fs := newGatedSync(true)
	g := newGroupSyncer(fs.sync, io.Discard)
	leader := waitAll(g, []uint64{g.noteAppend()})
	<-fs.entered // the leader's fsync is in flight

	const n = 16
	gens := make([]uint64, n)
	for i := range gens {
		gens[i] = g.noteAppend()
	}
	followers := waitAll(g, gens)
	fs.gate <- nil // leader's fsync completes
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	<-fs.entered // one follower leads the next fsync
	fs.gate <- nil
	for err := range followers {
		if err != nil {
			t.Fatal(err)
		}
	}
	if c := fs.calls.Load(); c != 2 {
		t.Fatalf("%d commits behind one in-flight fsync ran %d fsyncs in total, want 2", n, c)
	}
}

func TestGroupSyncerLatchesFirstFailure(t *testing.T) {
	errDisk := errors.New("disk gone")
	calls := 0
	var logw bytes.Buffer
	g := newGroupSyncer(func() error {
		calls++ // serialized: only one leader fsyncs at a time
		if calls == 2 {
			return errDisk
		}
		return nil
	}, &logw)

	first := g.noteAppend()
	if err := g.wait(first); err != nil {
		t.Fatal(err)
	}
	// The failing fsync covers every commit appended before it began.
	const n = 8
	gens := make([]uint64, n)
	for i := range gens {
		gens[i] = g.noteAppend()
	}
	for err := range waitAll(g, gens) {
		if !errors.Is(err, errDisk) {
			t.Fatalf("covered commit got %v, want %v", err, errDisk)
		}
	}
	// A later fsync would succeed, but it proves nothing about the pages
	// the failed one lost: later commits get the latched error too.
	for i := 0; i < 3; i++ {
		if err := g.wait(g.noteAppend()); !errors.Is(err, errDisk) {
			t.Fatalf("later commit got %v, want %v", err, errDisk)
		}
	}
	if err := g.wait(first); err != nil {
		t.Fatalf("commit covered before the failure got %v, want nil", err)
	}
	if err := g.failed(); !errors.Is(err, errDisk) {
		t.Fatalf("failed() = %v, want %v", err, errDisk)
	}
	if calls != 2 {
		t.Fatalf("%d fsyncs, want 2: none after the latched failure", calls)
	}
	if lines := strings.Count(logw.String(), "\n"); lines != 1 {
		t.Fatalf("failure logged %d times, want once:\n%s", lines, logw.String())
	}
}

func TestGroupSyncerCloseWakesWaiters(t *testing.T) {
	fs := newGatedSync(true)
	g := newGroupSyncer(fs.sync, io.Discard)
	leader := waitAll(g, []uint64{g.noteAppend()})
	<-fs.entered
	followers := waitAll(g, []uint64{g.noteAppend(), g.noteAppend(), g.noteAppend()})
	g.close()
	for err := range followers {
		if !errors.Is(err, errSyncerClosed) {
			t.Fatalf("waiter after close got %v, want %v", err, errSyncerClosed)
		}
	}
	if err := g.wait(g.noteAppend()); !errors.Is(err, errSyncerClosed) {
		t.Fatalf("commit after close got %v, want %v", err, errSyncerClosed)
	}
	fs.gate <- nil
	if err := <-leader; err != nil {
		t.Fatalf("leader whose fsync succeeded got %v", err)
	}
}

func TestGroupSyncerConcurrentCommits(t *testing.T) {
	var synced atomic.Uint64
	g := newGroupSyncer(func() error { synced.Add(1); return nil }, io.Discard)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := g.wait(g.noteAppend()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if synced.Load() == 0 || synced.Load() > 8*200 {
		t.Fatalf("%d fsyncs for %d commits", synced.Load(), 8*200)
	}
}

// failingWALStore opens a WAL store whose fsyncs go through syncFn.
func failingWALStore(t *testing.T, syncFn func() error) (*walStore, *engine.Engine) {
	t.Helper()
	ws, err := openWALStore(t.TempDir(), nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.close() })
	ws.sync = newGroupSyncer(syncFn, io.Discard)
	eng := newReplayEngine(t)
	t.Cleanup(func() { eng.Close() })
	return ws, eng
}

func keyedBatch(n int) []server.KeyedSample {
	batch := make([]server.KeyedSample, n)
	for i := range batch {
		batch[i] = server.KeyedSample{
			Sample: engine.Sample{ID: "s", TS: int64(i + 1), Value: float64(i)},
			Source: "src",
			Seq:    uint64(i + 1),
		}
	}
	return batch
}

func TestWALIngestDuplicateWaitsForOriginalFsync(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var done atomic.Bool
	ws, eng := failingWALStore(t, func() error {
		entered <- struct{}{}
		<-release
		done.Store(true)
		return nil
	})
	batch := keyedBatch(4)
	orig := make(chan error, 1)
	go func() {
		_, _, err := ws.ingest(eng, batch)
		orig <- err
	}()
	<-entered // the original's fsync is in flight
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	_, deduped, err := ws.ingest(eng, batch)
	if err != nil || deduped != len(batch) {
		t.Fatalf("retry: deduped %d, err %v; want %d, nil", deduped, err, len(batch))
	}
	if !done.Load() {
		t.Fatal("duplicate acked before the fsync covering its original completed")
	}
	if err := <-orig; err != nil {
		t.Fatal(err)
	}
}

func TestWALIngestRefusesAfterFsyncFailure(t *testing.T) {
	errDisk := errors.New("disk gone")
	ws, eng := failingWALStore(t, func() error { return errDisk })
	batch := keyedBatch(4)
	if _, _, err := ws.ingest(eng, batch); !errors.Is(err, errDisk) {
		t.Fatalf("commit got %v, want %v", err, errDisk)
	}
	// The marks stay, so the retry dedups — but its record's durability is
	// unknown, so it must not be acked either.
	if _, deduped, err := ws.ingest(eng, batch); !errors.Is(err, errDisk) || deduped != len(batch) {
		t.Fatalf("retry: deduped %d, err %v; want %d, %v", deduped, err, len(batch), errDisk)
	}
	// A snapshot would keep those marks and reset the WAL: refused.
	dir := t.TempDir()
	st, err := openSnapStore(dir, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.snapshot(st, eng, nil, nil); !errors.Is(err, errDisk) {
		t.Fatalf("snapshot after fsync failure got %v, want %v", err, errDisk)
	}
	if _, err := os.Stat(st.path()); !os.IsNotExist(err) {
		t.Fatalf("snapshot file written after fsync failure (stat err %v)", err)
	}
	if n := ws.wal.Records(); n != 1 {
		t.Fatalf("WAL holds %d records after refused snapshot, want 1", n)
	}
}
