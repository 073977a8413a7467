package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// inputs serialises everything the generator produces for one seed: stream
// names, warm-up samples, drawn batches per connection, the SSE subset and
// Zipf draws.
func inputs(seed uint64) []byte {
	var buf bytes.Buffer
	set := newStreamSet(seed, 500)
	buf.WriteString(strings.Join(set.ids, ","))
	next := make([]uint32, set.len())
	put := func(ss []sample) {
		for _, s := range ss {
			binary.Write(&buf, binary.LittleEndian, s.stream)
			binary.Write(&buf, binary.LittleEndian, s.k)
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(s.value))
		}
	}
	put(warmup(set, 8, next))
	for c, part := range partition(set.len(), 2) {
		d := newDrawer(set, part, next, uint64(c))
		for b := 0; b < 20; b++ {
			put(d.fill(nil, 64))
		}
	}
	for _, i := range set.subset(64, 1) {
		binary.Write(&buf, binary.LittleEndian, int32(i))
	}
	z := newZipf(set.len(), 1.1, seed, 2)
	for i := 0; i < 1000; i++ {
		binary.Write(&buf, binary.LittleEndian, int32(z.next()))
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(42), inputs(42)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from seed 42 differ")
	}
	if bytes.Equal(a, inputs(43)) {
		t.Fatal("seeds 42 and 43 generated identical inputs")
	}
}

func TestValueDependsOnlyOnStreamAndIndex(t *testing.T) {
	set := newStreamSet(7, 10)
	next := make([]uint32, set.len())
	d := newDrawer(set, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, next, 9)
	for _, s := range d.fill(nil, 500) {
		if v := set.value(int(s.stream), s.k); v != s.value {
			t.Fatalf("stream %d k %d: drawn %v, regenerated %v", s.stream, s.k, s.value, v)
		}
		// Usage traces are never negative; idle devices read exactly 0.
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) || s.value < 0 {
			t.Fatalf("value %v is not a finite non-negative usage figure", s.value)
		}
	}
	// Per-stream indices are consecutive from 0.
	for i, n := range next {
		if n == 0 {
			t.Errorf("stream %d never drawn in 500 uniform draws over 10 streams", i)
		}
	}
}

func TestDrawersStayOnTheirPartition(t *testing.T) {
	set := newStreamSet(3, 100)
	next := make([]uint32, set.len())
	for c, part := range partition(set.len(), 2) {
		d := newDrawer(set, part, next, uint64(c))
		for _, s := range d.fill(nil, 1000) {
			if int(s.stream)%2 != c {
				t.Fatalf("connection %d drew stream %d of the other partition", c, s.stream)
			}
		}
	}
}

func TestZipfDraw(t *testing.T) {
	const n, s, draws = 1000, 1.1, 400_000
	z := newZipf(n, s, 5, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		r := z.rank()
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of [0,%d)", r, n)
		}
		counts[r]++
	}
	h := 0.0
	for r := 1; r <= n; r++ {
		h += 1 / math.Pow(float64(r), s)
	}
	for _, r := range []int{0, 1, 9} {
		want := 1 / math.Pow(float64(r+1), s) / h
		got := float64(counts[r]) / draws
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("rank %d: frequency %.4f, want %.4f ±5%%", r, got, want)
		}
	}
	if counts[0] <= counts[1] || counts[1] <= counts[9] {
		t.Errorf("frequencies not decreasing with rank: %d %d %d", counts[0], counts[1], counts[9])
	}
	// next maps ranks through a permutation: every stream is reachable
	// and the hottest stream is the permutation's first entry.
	seen := map[int]bool{}
	for _, p := range z.perm {
		seen[p] = true
	}
	if len(seen) != n {
		t.Fatalf("permutation covers %d of %d streams", len(seen), n)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed: the helper must sort
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1, 0.5, 1, true},
		{100, 0.5, 50, true},
		{100, 0.90, 90, true},   // 10 beyond: allowed
		{100, 0.91, 0, false},   // 9 beyond
		{100, 0.99, 0, false},   // 1 beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 0, false},   // rank 990 of 999: 9 beyond
		{5, 0.5, 3, true},       // the median needs nothing beyond it
	} {
		got, err := percentile(vals(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d: err %v, want ok=%v", tc.q*100, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("p%g of %d = %v, want %v", tc.q*100, tc.n, got, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", m)
	}
}

func TestOpenLoopDueTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newSchedule(t0, 100) // one batch every 10 ms
	if got := s.due(0); !got.Equal(t0) {
		t.Errorf("due(0) = %v, want start", got)
	}
	if got := s.due(5).Sub(t0); got != 50*time.Millisecond {
		t.Errorf("due(5) = start+%v, want +50ms", got)
	}
	if n := s.count(2 * time.Second); n != 200 {
		t.Errorf("count(2s) = %d, want 200", n)
	}
	// On time (early counts as on time): no lateness.
	if l := s.late(3, t0.Add(29*time.Millisecond)); l != 0 {
		t.Errorf("early send reported %v late", l)
	}
	// A stall: batch 3 (due +30ms) went out at +100ms and was acked 1ms
	// later. It ran 70ms late, and its latency counts from the due time,
	// so the stall's wait is in the figure, not hidden by the late send.
	sent, done := t0.Add(100*time.Millisecond), t0.Add(101*time.Millisecond)
	if l := s.late(3, sent); l != 70*time.Millisecond {
		t.Errorf("late = %v, want 70ms", l)
	}
	if l := s.latency(3, done); l != 71*time.Millisecond {
		t.Errorf("latency = %v, want 71ms (from due, not from send)", l)
	}
	// Batches due during the stall are not spread out: each keeps its
	// own due time.
	if d := s.due(4).Sub(s.due(3)); d != 10*time.Millisecond {
		t.Errorf("due spacing %v after a stall, want 10ms", d)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{8, 1, 7, 2, 6, 3, 5, 4}
	if q := quantile(vals, 0.25); q != 2 {
		t.Errorf("lower quartile = %v, want 2", q)
	}
	if q := quantile(vals, 0.75); q != 6 {
		t.Errorf("upper quartile = %v, want 6", q)
	}
}

func TestWindowsAndRate(t *testing.T) {
	t0 := time.Unix(50, 0)
	s := series{from: t0, d: 2500 * time.Millisecond}
	for i := 0; i < 25; i++ {
		s.xs = append(s.xs, obs{t0.Add(time.Duration(i) * 100 * time.Millisecond), float64(i)})
	}
	w := s.windows(time.Second)
	if len(w) != 2 || len(w[0]) != 10 || len(w[1]) != 10 || w[1][0] != 10 {
		t.Fatalf("windows: %v (the partial third second must be dropped)", w)
	}

	// Two phases, 5 samples acked every 100 ms: 50 samples/s over their
	// summed extents.
	var ph []series
	for p := 0; p < 2; p++ {
		c := series{from: t0, d: 4 * time.Second}
		for i := 1; i <= 40; i++ {
			c.xs = append(c.xs, obs{t0.Add(time.Duration(i) * 100 * time.Millisecond), 5})
		}
		ph = append(ph, c)
	}
	if r, err := rate(ph); err != nil || math.Abs(r-50) > 1e-9 {
		t.Errorf("rate %v (%v), want 50", r, err)
	}
	if _, err := rate([]series{{from: t0}}); err == nil {
		t.Error("rate over an empty phase did not fail")
	}
}

// ackRun is 8 rounds of 3 s open-loop phases, 100 acks a second of 1 ms
// each (jittered by 1%); in every third window from the second on, half of
// the acks take stall instead.
func ackRun(stall float64) []series {
	t0 := time.Unix(1000, 0)
	var ss []series
	for r := 0; r < 8; r++ {
		from := t0.Add(time.Duration(r) * 10 * time.Second)
		s := series{from: from, d: 3 * time.Second}
		for j := 0; j < 300; j++ {
			v := 1 + 0.01*float64(j%7)
			if win := r*3 + j/100; win%3 == 1 && j%2 == 0 {
				v = stall
			}
			s.xs = append(s.xs, obs{from.Add(time.Duration(j) * 10 * time.Millisecond), v})
		}
		ss = append(ss, s)
	}
	return ss
}

func TestStallInAThirdOfWindowsMovesTheTail(t *testing.T) {
	fig := func(stall float64) map[string]float64 {
		p := newReport()
		if err := p.latency("ack", ackRun(stall), time.Second, 0.90); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for n, m := range p.metrics {
			out[n] = m.Value
		}
		return out
	}
	// Without a stall, every figure sits at the 1 ms baseline.
	base := fig(1)
	for _, n := range []string{"ack_p50_ms", "ack_p90_ms", "ack_p99_ms"} {
		if base[n] < 1 || base[n] > 1.1 {
			t.Fatalf("%s = %v without a stall, want about 1", n, base[n])
		}
	}
	// A stall the program causes itself in a third of the windows is one
	// sixth of all acks: the gated whole-run p90 must show it.
	stalled := fig(5)
	if !gatedMetrics["ack_p90_ms"] {
		t.Fatal("ack_p90_ms is not gated")
	}
	if stalled["ack_p90_ms"] != 5 {
		t.Errorf("ack_p90_ms = %v with a stall in a third of the windows, want 5", stalled["ack_p90_ms"])
	}
	// The windowed median of p50 stays put: it is the figure for the
	// common case, robust to outside bursts.
	if stalled["ack_p50_ms"] > 1.1 {
		t.Errorf("ack_p50_ms = %v, want the 1 ms baseline", stalled["ack_p50_ms"])
	}
}
