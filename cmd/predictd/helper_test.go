package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// The WAL durability tests need a real kill -9: an in-process run() always
// takes the graceful-drain path, which writes a snapshot and would mask WAL
// bugs. So the crash tests re-exec this test binary as a helper process
// (the classic exec.Command(os.Args[0], "-test.run=...") pattern) and
// SIGKILL it mid-ingest.

// TestHelperPredictdProcess is not a test: it is the daemon body the crash
// tests run as a child process. Guarded by env so normal runs skip it.
func TestHelperPredictdProcess(t *testing.T) {
	if os.Getenv("PREDICTD_HELPER") != "1" {
		t.Skip("helper body for crash tests; started via startHelper")
	}
	o := testOptions()
	o.stateDir = os.Getenv("PREDICTD_HELPER_STATE")
	o.durability = "wal"
	o.snapEvery = 0
	if v := os.Getenv("PREDICTD_HELPER_SNAP_EVERY"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad PREDICTD_HELPER_SNAP_EVERY: %v", err)
		}
		o.snapEvery = d
	}
	// Cluster mode: the soak sets the node's identity and the full
	// membership (peer addresses are the chaos proxies, so inter-node
	// traffic crosses the fault injector).
	if id := os.Getenv("PREDICTD_HELPER_NODE_ID"); id != "" {
		o.nodeID = id
		o.peers = os.Getenv("PREDICTD_HELPER_PEERS")
		o.replication = 2
		if v := os.Getenv("PREDICTD_HELPER_REPLICATION"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad PREDICTD_HELPER_REPLICATION: %v", err)
			}
			o.replication = n
		}
		parseDur := func(key string, into *time.Duration) {
			if v := os.Getenv(key); v != "" {
				d, err := time.ParseDuration(v)
				if err != nil {
					t.Fatalf("bad %s: %v", key, err)
				}
				*into = d
			}
		}
		parseDur("PREDICTD_HELPER_HB", &o.hbEvery)
		parseDur("PREDICTD_HELPER_DOWN", &o.downAfter)
		if v := os.Getenv("PREDICTD_HELPER_SUSPECT"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad PREDICTD_HELPER_SUSPECT: %v", err)
			}
			o.suspectAfter = n
		}
	}
	// Write-then-rename so the parent never reads a half-written addr.
	publishAddr := func(file string) func(string) {
		return func(a string) {
			tmp := file + ".tmp"
			if err := os.WriteFile(tmp, []byte(a), 0o644); err == nil {
				os.Rename(tmp, file)
			}
		}
	}
	o.addrReady = publishAddr(os.Getenv("PREDICTD_HELPER_ADDRFILE"))
	if bf := os.Getenv("PREDICTD_HELPER_BINARY_ADDRFILE"); bf != "" {
		o.binaryListen = "127.0.0.1:0"
		o.binaryAddrReady = publishAddr(bf)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, o); err != nil {
		t.Fatalf("helper run: %v", err)
	}
}

// helperProc manages one predictd child process across kill/restart cycles.
type helperProc struct {
	t         *testing.T
	stateDir  string
	snapEvery time.Duration
	// extraEnv carries additional PREDICTD_HELPER_* settings (the cluster
	// soak's node identity and membership); reapplied on every restart.
	extraEnv []string
	// binary asks the child to also open a wire-protocol ingest listener
	// and publish its address (binAddr).
	binary bool

	cmd     *exec.Cmd
	addr    string
	binAddr string
	out     *bytes.Buffer
}

// startHelper launches the daemon as a child process in WAL mode on the
// given state directory and waits for it to publish its listen address.
// snapEvery 0 disables periodic snapshots, forcing all durability through
// the WAL.
func startHelper(t *testing.T, stateDir string, snapEvery time.Duration) *helperProc {
	t.Helper()
	return launchHelper(t, &helperProc{t: t, stateDir: stateDir, snapEvery: snapEvery})
}

// startBinaryHelper is startHelper with the wire-protocol ingest listener
// enabled; the child publishes both addresses before start returns.
func startBinaryHelper(t *testing.T, stateDir string, snapEvery time.Duration) *helperProc {
	t.Helper()
	return launchHelper(t, &helperProc{t: t, stateDir: stateDir, snapEvery: snapEvery, binary: true})
}

func launchHelper(t *testing.T, h *helperProc) *helperProc {
	t.Helper()
	if err := h.start(); err != nil {
		t.Fatalf("start helper: %v\noutput:\n%s", err, h.out)
	}
	t.Cleanup(func() {
		if h.cmd != nil && h.cmd.ProcessState == nil {
			h.cmd.Process.Kill()
			h.cmd.Wait()
		}
	})
	return h
}

// start (re)spawns the child and blocks until it serves; call again after
// kill9 to model a crash restart (from the test goroutine — it registers
// cleanups).
func (h *helperProc) start() error {
	dir, err := os.MkdirTemp("", "predictd-helper-addr")
	if err != nil {
		return err
	}
	h.t.Cleanup(func() { os.RemoveAll(dir) })
	addrFile := filepath.Join(dir, "addr")
	binAddrFile := filepath.Join(dir, "binaddr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperPredictdProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"PREDICTD_HELPER=1",
		"PREDICTD_HELPER_STATE="+h.stateDir,
		"PREDICTD_HELPER_ADDRFILE="+addrFile,
		"PREDICTD_HELPER_SNAP_EVERY="+h.snapEvery.String(),
	)
	if h.binary {
		cmd.Env = append(cmd.Env, "PREDICTD_HELPER_BINARY_ADDRFILE="+binAddrFile)
	}
	cmd.Env = append(cmd.Env, h.extraEnv...)
	h.out = &bytes.Buffer{}
	cmd.Stdout, cmd.Stderr = h.out, h.out
	if err := cmd.Start(); err != nil {
		return err
	}
	h.cmd = cmd
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, rerr := os.ReadFile(addrFile)
		if rerr == nil && len(b) > 0 {
			if !h.binary {
				h.addr = string(b)
				return nil
			}
			if bb, berr := os.ReadFile(binAddrFile); berr == nil && len(bb) > 0 {
				h.addr, h.binAddr = string(b), string(bb)
				return nil
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			return errHelperNoAddr
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var errHelperNoAddr = errTimeout("helper never published its listen address")

type errTimeout string

func (e errTimeout) Error() string { return string(e) }

// kill9 SIGKILLs the child — no drain, no final snapshot — and reaps it.
func (h *helperProc) kill9() {
	h.t.Helper()
	if err := h.cmd.Process.Kill(); err != nil {
		h.t.Fatalf("kill -9 helper: %v", err)
	}
	h.cmd.Wait()
}
