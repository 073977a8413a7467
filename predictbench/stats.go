package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so the helper refuses it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of vals (which it sorts in
// place). It fails unless at least minBeyond samples lie beyond it.
func percentile(vals []float64, q float64) (float64, error) {
	n := len(vals)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond && q > 0.5 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-rank, minBeyond)
	}
	if !sort.Float64sAreSorted(vals) {
		sort.Float64s(vals)
	}
	return vals[rank-1], nil
}

// median is the middle value (mean of the two middle ones for even n).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// schedule is the open-loop clock: batch j is due at start + j*interval,
// whatever happened to earlier batches. A batch is timed from its due time,
// so a stall delays every batch due during it and the wait shows in the
// latency instead of vanishing from the sample (coordinated omission).
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, perSecond float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// due is when batch j should be sent.
func (s schedule) due(j int) time.Time { return s.start.Add(time.Duration(j) * s.interval) }

// count is how many batches are due in a phase of length d.
func (s schedule) count(d time.Duration) int { return int(d / s.interval) }

// late is how far behind its schedule the generator sent batch j at sent;
// zero when it was on time.
func (s schedule) late(j int, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(j)); d > 0 {
		return d
	}
	return 0
}

// latency is the time from batch j's due time to its completion at done.
func (s schedule) latency(j int, done time.Time) time.Duration { return done.Sub(s.due(j)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// obs is one timed observation.
type obs struct {
	at time.Time
	v  float64
}

// series is a phase's observations with the phase's extent.
type series struct {
	from time.Time
	d    time.Duration
	xs   []obs
}

// windows splits s into consecutive windows of length w from the phase
// start and returns each full window's values; a trailing partial window
// is dropped.
func (s series) windows(w time.Duration) [][]float64 {
	n := int(s.d / w)
	out := make([][]float64, n)
	for _, x := range s.xs {
		if k := int(x.at.Sub(s.from) / w); k >= 0 && k < n {
			out[k] = append(out[k], x.v)
		}
	}
	return out
}

// A run's central latency figures are the median, over many short windows
// of all rounds, of each window's percentile: a burst of interference from
// outside moves the windows it hits, not their median. Tail figures and
// rates are taken over the whole run, so a stall the program causes itself
// shows in them even when it hits only some of the windows.

// quantile is the nearest-rank q-quantile of vals, without the tail rule:
// it aggregates per-window figures, each already a valid statistic.
func quantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[max(rank, 1)-1]
}

// windowedPercentile is the median over the windows of every series of
// each window's q-quantile. Windows too small for a q-quantile with
// minBeyond samples beyond it are skipped; it fails when none qualifies.
func windowedPercentile(ss []series, w time.Duration, q float64) (v float64, used int, err error) {
	var per []float64
	for _, s := range ss {
		for _, win := range s.windows(w) {
			if p, perr := percentile(win, q); perr == nil {
				per = append(per, p)
			}
		}
	}
	if len(per) == 0 {
		return 0, 0, fmt.Errorf("no %v window holds enough samples for p%g", w, q*100)
	}
	return median(per), len(per), nil
}

// rate is the summed values of every series per second of their summed
// extents: for a closed-loop phase (x.v samples acked at x.at, the extent
// from first send to last ack), its throughput.
func rate(ss []series) (float64, error) {
	var total float64
	var d time.Duration
	for _, s := range ss {
		d += s.d
		for _, x := range s.xs {
			total += x.v
		}
	}
	if d <= 0 {
		return 0, fmt.Errorf("rate over an empty phase")
	}
	return total / d.Seconds(), nil
}

// values is every observation's value.
func values(ss []series) []float64 {
	var out []float64
	for _, s := range ss {
		for _, x := range s.xs {
			out = append(out, x.v)
		}
	}
	return out
}
