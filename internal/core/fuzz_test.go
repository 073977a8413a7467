package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"github.com/acis-lab/larpredictor/internal/tournament"
)

// fuzzOnlineCfg is the configuration every FuzzOnlineRestoreState seed is
// saved under and every fuzzed blob is restored into. A tight failure
// budget lets a short poisoned feed reach the terminal Failed state; drift
// demotion puts the detector's state in the payload too.
func fuzzOnlineCfg() OnlineConfig {
	cfg := onlineCfg(5, 20)
	cfg.BreakerThreshold = 2
	cfg.FailureLimit = 3
	cfg.ProbeSpacing = 15
	cfg.Drift = &tournament.DriftConfig{}
	return cfg
}

// fuzzSeedState drives a fresh predictor until done reports true (or the
// feed runs out) and returns its snapshot. poison NaN-poisons every tenth
// observation, so each training window holds one and every train fails.
func fuzzSeedState(f *testing.F, poison bool, done func(*Online) bool) []byte {
	f.Helper()
	o, err := NewOnline(fuzzOnlineCfg())
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 400 && !done(o); i++ {
		v := 10 * math.Sin(float64(i)*0.05)
		if poison && i%10 == 9 {
			v = math.NaN()
		}
		o.Step(v)
	}
	if !done(o) {
		f.Fatalf("seed feed ended in %s", o.Health())
	}
	var buf bytes.Buffer
	if err := o.SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// resealed returns data with its CRC32 footer recomputed, so a mutation of
// the payload reaches the decoder and the structural checks instead of
// stopping at the checksum.
func resealed(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// FuzzOnlineRestoreState feeds arbitrary bytes to Online.RestoreState, both
// as given and resealed with a valid checksum, seeded with real snapshots
// of a Healthy, a Tournament-rung and a Failed predictor. Restore must
// never panic, and any blob it accepts must leave a predictor that can keep
// stepping and snapshotting.
func FuzzOnlineRestoreState(f *testing.F) {
	seeds := [][]byte{
		fuzzSeedState(f, false, func(o *Online) bool {
			return o.Trained() && o.Health() == Healthy && o.HistoryLen() >= 60
		}),
		fuzzSeedState(f, true, func(o *Online) bool { return o.Health() == Tournament }),
		fuzzSeedState(f, true, func(o *Online) bool { return o.Health() == Failed }),
	}
	for _, b := range seeds {
		f.Add(b)
		for _, cut := range []int{1, 12, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
		flip := append([]byte(nil), b...)
		flip[len(flip)/3] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, blob := range [][]byte{data, resealed(data)} {
			o, err := NewOnline(fuzzOnlineCfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := o.RestoreState(bytes.NewReader(blob)); err != nil {
				continue // rejected blobs are fine; panics are not
			}
			for i := 0; i < 80; i++ {
				v := 10 * math.Sin(float64(i)*0.3)
				if i%17 == 16 {
					v = math.NaN()
				}
				o.Step(v)
			}
			var buf bytes.Buffer
			if err := o.SaveState(&buf); err != nil {
				t.Fatalf("accepted state cannot be saved again: %v", err)
			}
		}
	})
}
