package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// The generator turns a seed into every input a run sends: the stream
// names, each stream's value series, the order in which streams are drawn,
// and the subsets the SSE subscriber and the replay oracle watch. The daemon
// sees only the generated samples, never the seed.
//
// A value depends only on (seed, stream, per-stream index), so the same
// stream replays to the same series whatever order the batches were drawn
// in, and the oracle can regenerate what was sent instead of storing it.

// mix64 is the splitmix64 finalizer: a cheap, well-spread 64-bit hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// poolSets is how many seeded copies of the paper's five-VM, twelve-metric
// trace set make up the pool the streams draw their series from.
const poolSets = 8

// streamSet is the seeded population of streams one workload drives. Each
// stream replays one trace of a pool built from internal/vmtrace's
// synthetic equivalents of the paper's VM traces (autocorrelated CPU,
// step-wise memory, on/off and quiet/loud network and disk, idle devices),
// from its own offset, cyclically, at its own scale.
type streamSet struct {
	seed  uint64
	ids   []string
	pool  [][]float64
	tmpl  []int32
	off   []uint32
	scale []float64
}

func newStreamSet(seed uint64, n int) *streamSet {
	s := &streamSet{
		seed:  seed,
		ids:   make([]string, n),
		tmpl:  make([]int32, n),
		off:   make([]uint32, n),
		scale: make([]float64, n),
	}
	for j := 0; j < poolSets; j++ {
		ts := vmtrace.StandardTraceSet(int64(mix64(seed ^ uint64(j)<<48)))
		for _, tr := range ts.All() {
			s.pool = append(s.pool, tr.Values)
		}
	}
	for i := 0; i < n; i++ {
		h := mix64(seed ^ uint64(i)*0x100000001b3)
		t := int(mix64(h+1) % uint64(len(s.pool)))
		s.ids[i] = fmt.Sprintf("host%05d/cpu", i)
		s.tmpl[i] = int32(t)
		s.off[i] = uint32(mix64(h+2) % uint64(len(s.pool[t])))
		s.scale[i] = 0.5 + 1.5*unit(mix64(h+3))
	}
	return s
}

func (s *streamSet) len() int { return len(s.ids) }

// value is the k-th observation of stream i: its trace's sample at
// offset+k, wrapping at the trace's end, times the stream's scale.
func (s *streamSet) value(i int, k uint32) float64 {
	tr := s.pool[s.tmpl[i]]
	return s.scale[i] * tr[(uint64(s.off[i])+uint64(k))%uint64(len(tr))]
}

// subset draws m distinct stream indices (sorted) with a seeded shuffle.
func (s *streamSet) subset(m int, salt uint64) []int {
	if m > s.len() {
		m = s.len()
	}
	r := rand.New(rand.NewPCG(s.seed, salt))
	out := r.Perm(s.len())[:m]
	sort.Ints(out)
	return out
}

// sample is one generated observation: stream index, its per-stream index
// (the dedup sequence number is k+1) and its value.
type sample struct {
	stream int32
	k      uint32
	value  float64
}

// drawer draws samples for a fixed set of streams, each stream chosen
// uniformly. Disjoint drawers (one per connection) keep every stream's
// samples on one connection, so per-stream apply order is send order.
type drawer struct {
	set     *streamSet
	streams []int
	next    []uint32 // per stream-set index: the next k to issue
	rng     *rand.Rand
}

func newDrawer(set *streamSet, streams []int, next []uint32, salt uint64) *drawer {
	return &drawer{set: set, streams: streams, next: next, rng: rand.New(rand.NewPCG(set.seed, salt))}
}

// fill appends n freshly drawn samples to dst.
func (d *drawer) fill(dst []sample, n int) []sample {
	for j := 0; j < n; j++ {
		i := d.streams[d.rng.IntN(len(d.streams))]
		k := d.next[i]
		d.next[i]++
		dst = append(dst, sample{stream: int32(i), k: k, value: d.set.value(i, k)})
	}
	return dst
}

// warmup returns the set-up load: every stream gets perStream samples,
// interleaved in a seeded order so each batch touches many streams.
func warmup(set *streamSet, perStream int, next []uint32) []sample {
	r := rand.New(rand.NewPCG(set.seed, 0x7761726d))
	order := r.Perm(set.len())
	out := make([]sample, 0, set.len()*perStream)
	for round := 0; round < perStream; round++ {
		for _, i := range order {
			k := next[i]
			next[i]++
			out = append(out, sample{stream: int32(i), k: k, value: set.value(i, k)})
		}
	}
	return out
}

// partition splits stream indices 0..n-1 into parts by index modulo parts.
func partition(n, parts int) [][]int {
	out := make([][]int, parts)
	for i := 0; i < n; i++ {
		out[i%parts] = append(out[i%parts], i)
	}
	return out
}

// zipf draws stream ranks with P(rank r) proportional to 1/(r+1)^s over n
// ranks, through a seeded permutation so the hot streams differ by seed.
type zipf struct {
	cdf  []float64
	perm []int
	rng  *rand.Rand
}

func newZipf(n int, s float64, seed, salt uint64) *zipf {
	z := &zipf{cdf: make([]float64, n), rng: rand.New(rand.NewPCG(seed, salt))}
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	z.perm = z.rng.Perm(n)
	return z
}

// rank draws a popularity rank (0 is the hottest).
func (z *zipf) rank() int {
	u := z.rng.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// next draws a stream index.
func (z *zipf) next() int { return z.perm[z.rank()] }
