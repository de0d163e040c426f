package core

import (
	"fmt"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// fuzzWarmInstructions is the length of each fuzzed stream.
const fuzzWarmInstructions = 30_000

// partialStores rewrites a share of a stream's stores, drawn from a
// splitmix64 sequence, into byte and halfword stores within the same
// word: the partial writes subblock placement must not count as
// validating their word, which synthetic streams never make.
type partialStores struct {
	src   trace.Stream
	rng   uint64
	share uint64 // rewrite a store when a draw mod 8 falls below share
}

func (p *partialStores) Next(ev *trace.Event) bool {
	if !p.src.Next(ev) {
		return false
	}
	if ev.Kind != trace.Store || p.share == 0 {
		return true
	}
	p.rng += 0x9e3779b97f4a7c15
	z := p.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z%8 >= p.share {
		return true
	}
	if z&8 == 0 {
		ev.Size, ev.Data = 1, ev.Data&^3|uint32(z>>4)&3
	} else {
		ev.Size, ev.Data = 2, ev.Data&^3|uint32(z>>4)&2
	}
	return true
}

// fuzzWarmTrace packs one synthetic process drawn from seed and shape:
// the store fraction, the data working set, store bursts, syscalls, and
// the share of stores made partial.
func fuzzWarmTrace(seed uint64, shape uint8) *trace.Recorded {
	g := synth.New(synth.Config{
		Instructions: fuzzWarmInstructions,
		LoadFrac:     0.20,
		StoreFrac:    []float64{0.05, 0.10, 0.20, 0.30}[shape>>6],
		CodeBytes:    16 * 1024,
		DataBytes:    16 * 1024 << (shape & 3),
		SeqFrac:      0.4,
		HotFrac:      0.3,
		StoreBurst:   int(shape>>2&1) * 4,
		SyscallEvery: uint64(shape>>5&1) * 3_000,
		Seed:         seed,
	})
	return trace.Pack(&partialStores{src: g, rng: seed, share: []uint64{0, 1, 2, 4}[shape>>3&3]})
}

// FuzzWarmMatchesExact draws an L1 pair (size, line and ways of each,
// and the fetch sizes), a write policy, a unified or split L2 (size and
// ways), a synth seed and a stream shape, and demands that functional
// warming (WarmScan, in random chunks) leave bit-identical cache state
// to the cycle-accurate engine (Step, with self-checks on, then a
// write-buffer drain). The configuration stays where the write buffer
// fully orders L2 probes: LPSNone, IMissWaitsForWB, and under
// write-back a buffer that holds a whole refill block's victims, so no
// victim drains before the refill's own L2 read.
func FuzzWarmMatchesExact(f *testing.F) {
	for policy := uint8(0); policy < 4; policy++ {
		for split := uint8(0); split < 2; split++ {
			// iGeom, dGeom, fetch, policy, l2, seed, shape.
			f.Add(1+policy*4, 2+policy*16+split*4, policy+split*4, policy, split+policy*2+split*8, uint64(policy)<<8|uint64(split), 0x18+policy*0x40+split*0x20)
		}
	}
	f.Fuzz(func(t *testing.T, iGeom, dGeom, fetch, policy, l2 uint8, seed uint64, shape uint8) {
		// A geometry byte picks 256 W to 2 KW, 2, 4 or 8 W lines, and 1,
		// 2 or 4 ways; the L2 line is Base's 32 W, so every fetch of up
		// to four lines fits it.
		geom := func(b uint8) CacheGeom {
			return CacheGeom{SizeWords: 256 << (b % 4), LineWords: 2 << (b / 4 % 3), Ways: 1 << (b / 16 % 3)}
		}
		cfg := Base()
		cfg.L1I, cfg.L1D = geom(iGeom), geom(dGeom)
		cfg.L1IFetch = cfg.L1I.LineWords << (fetch % 3)
		cfg.L1DFetch = cfg.L1D.LineWords << (fetch / 3 % 3)
		cfg.WritePolicy = WritePolicy(policy % 4)
		if cfg.WritePolicy == WriteBack {
			cfg.WBEntries, cfg.WBEntryWords = max(4, cfg.L1DFetch/cfg.L1D.LineWords), cfg.L1D.LineWords
		} else {
			cfg.WBEntries, cfg.WBEntryWords = 8, 1
		}
		l2Geom := CacheGeom{SizeWords: 2 * 1024 << (l2 / 2 % 4), LineWords: 32, Ways: 1 << (l2 / 8 % 2)}
		if l2%2 == 1 {
			cfg.L2Split = true
			cfg.L2I = L2Bank{Geom: l2Geom, Timing: cfg.L2U.Timing}
			cfg.L2D = cfg.L2I
		} else {
			cfg.L2U.Geom = l2Geom
		}
		cfg.SelfCheck = 5_000
		if err := cfg.Validate(); err != nil {
			t.Fatalf("drawn configuration invalid: %v", err)
		}

		rec := fuzzWarmTrace(seed, shape)
		exact := replayExact(t, cfg, rec)
		if warm := replayWarmScan(t, cfg, rec); warm != exact {
			name := fmt.Sprintf("%v, L1-I %+v fetch %d, L1-D %+v fetch %d, split L2 %v %+v, seed %#x, shape %#x",
				cfg.WritePolicy, cfg.L1I, cfg.L1IFetch, cfg.L1D, cfg.L1DFetch, cfg.L2Split, l2Geom, seed, shape)
			t.Fatalf("%s: cache state diverged: exact fingerprint %#x, WarmScan %#x", name, exact, warm)
		}
	})
}
