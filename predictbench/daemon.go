package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one predictd subprocess on its own state directory.
type daemon struct {
	cmd      *exec.Cmd
	stateDir string
	httpAddr string
	binAddr  string
	exited   chan struct{}
	waitErr  error
}

// startDaemon launches bin with args plus its listen flags, and returns
// once it has printed both listen addresses. The child is killed if the
// harness dies (Pdeathsig), and stop must be called on every path.
func startDaemon(ctx context.Context, bin, stateDir, logPath string, args []string) (*daemon, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	all := append([]string{
		"-listen", "127.0.0.1:0",
		"-binary-listen", "127.0.0.1:0",
		"-state", stateDir,
		"-snapshot-every", "0",
	}, args...)
	cmd := exec.Command(bin, all...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start predictd: %w", err)
	}
	d := &daemon{cmd: cmd, stateDir: stateDir, exited: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		// Copy the daemon's stdout to the log, picking the two listen
		// addresses out of its start-up lines on the way.
		var a [2]string
		sent := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if v, ok := strings.CutPrefix(line, "predictd: binary ingest on "); ok {
				a[1] = v
			}
			if v, ok := strings.CutPrefix(line, "predictd: serving on "); ok {
				a[0], _, _ = strings.Cut(v, " ")
			}
			if !sent && a[0] != "" && a[1] != "" {
				addrs <- a
				sent = true
			}
		}
		io.Copy(logf, stdout)
		d.waitErr = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.binAddr = a[0], a[1]
	case <-d.exited:
		return nil, fmt.Errorf("predictd exited during start-up (%v); see %s", d.waitErr, logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("predictd did not report its listen addresses; see %s", logPath)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	return d, nil
}

// stop kills the daemon, waits for it to exit and removes its state
// directory (the log stays). The benchmark never needs the final snapshot,
// so it skips the graceful drain.
func (d *daemon) stop() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.stateDir)
}

func (d *daemon) url(path string) string { return "http://" + d.httpAddr + path }

// procStatus reads one "Key: value kB" line from /proc/<pid>/status.
func (d *daemon) procStatusKB(key string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", key)
}

// peakRSSMB is the daemon's high-water resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	kb, err := d.procStatusKB("VmHWM")
	return kb / 1024, err
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every mainstream Linux build.
const clockTicks = 100

// cpuTime is the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat cpu fields")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// scrape is one /metrics exposition: series name with its label set ->
// value.
type scrape map[string]float64

func (d *daemon) scrape(ctx context.Context, hc *http.Client) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads Prometheus text format into a scrape.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family whose labels contain all of
// the given label pairs (for example `status="ok"`).
func (s scrape) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range s {
		fam, rest, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta is after minus before for one family and label filter.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
