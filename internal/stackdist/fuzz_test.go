package stackdist_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stackdist"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fuzzMax caps each fuzzed run, both tiers alike.
const fuzzMax = 100_000

// queens is the kernel-suite member the fuzzed workloads include: its
// byte stores are what exercise subblock placement's partial-word
// writes, which the synthetic streams never make.
var queens = sync.OnceValue(func() *trace.Recorded {
	for _, m := range workload.Members() {
		if m.Name == "queens" {
			return trace.Pack(m.NewStream(1))
		}
	}
	return nil
})

// fuzzProcs returns three synthetic processes drawn from seed and
// syscallEvery, followed by the queens recording.
func fuzzProcs(seed uint64, syscallEvery uint64) []sched.Process {
	var procs []sched.Process
	for i := uint64(0); i < 3; i++ {
		g := synth.New(synth.Config{
			Instructions: 25_000,
			LoadFrac:     0.20,
			StoreFrac:    0.10,
			CodeBytes:    32 * 1024,
			DataBytes:    256 * 1024,
			SeqFrac:      0.4,
			HotFrac:      0.4,
			StoreBurst:   3,
			StallProb:    0.2,
			SyscallEvery: syscallEvery,
			Seed:         seed + i,
		})
		procs = append(procs, sched.Process{Name: fmt.Sprintf("synth%d", i), Stream: trace.Pack(g).NewCursor()})
	}
	return append(procs, sched.Process{Name: "queens", Stream: queens().NewCursor()})
}

// FuzzScreeningMatchesExact draws an L1 pair, a write policy, an L2, a
// workload and a multiprogramming level, runs the one-pass analyzer
// with that L1 pair as its filter and the exact simulator with it as
// its L1, and demands integer equality wherever DESIGN.md §11's
// exactness domain holds: syscall-only context switches, LPSNone,
// one-line fetch, and write-back buffer entries one L1-D line wide.
// Every filter counter must equal its exact counter, the unified L2
// grid point the exact L2's accesses and misses, the L1-I grid point
// the exact L1-I's misses, and, under write-back, the L1-D grid point
// the exact L1-D's misses.
func FuzzScreeningMatchesExact(f *testing.F) {
	for policy := uint8(0); policy < 4; policy++ {
		for line := uint8(0); line < 2; line++ {
			// iGeom, dGeom, policy, l2, level, seed, syscallEvery.
			f.Add(2+line*4+(1-policy%2)*8, 2+line*4+policy%2*8, policy, policy, 1+policy, uint64(policy)<<8|uint64(line), 2000+1000*uint16(policy))
		}
	}
	f.Fuzz(func(t *testing.T, iGeom, dGeom, policy, l2, level uint8, seed uint64, syscallEvery uint16) {
		// A geometry byte picks 1, 2, 4 or 8 KW, 4 W or 8 W lines, and
		// 1 or 2 ways.
		geom := func(b uint8) core.CacheGeom {
			return core.CacheGeom{SizeWords: 1024 << (b % 4), LineWords: 4 << (b / 4 % 2), Ways: 1 + int(b/8%2)}
		}
		l1i, l1d := geom(iGeom), geom(dGeom)
		wp := core.WritePolicy(policy % 4)
		l2Geom := core.CacheGeom{SizeWords: []int{16 * 1024, 64 * 1024, 256 * 1024}[l2%3], LineWords: 32, Ways: 1 + int(l2/3%2)}
		scfg := sched.Config{Level: 1 + int(level%4), TimeSlice: syscallOnlySlice, MaxInstructions: fuzzMax}

		cfg := core.Base()
		cfg.L1I, cfg.L1D, cfg.WritePolicy = l1i, l1d, wp
		cfg.L2U.Geom = l2Geom
		if wp == core.WriteBack {
			cfg.WBEntries, cfg.WBEntryWords = 4, l1d.LineWords
		} else {
			cfg.WBEntries, cfg.WBEntryWords = 8, 1
		}
		cfg.SelfCheck = 10_000
		exact, err := sim.Run(cfg, fuzzProcs(seed, uint64(syscallEvery)), scfg)
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		st := exact.Stats

		sizes, ways := []int{1024, 2048, 4096, 8192}, []int{1, 2}
		res, _, err := stackdist.Analyze(stackdist.Config{
			L1I:          stackdist.GridSpec{LineWords: l1i.LineWords, SizesWords: sizes, Ways: ways},
			L1D:          stackdist.GridSpec{LineWords: l1d.LineWords, SizesWords: sizes, Ways: ways},
			L2:           stackdist.GridSpec{LineWords: 32, SizesWords: []int{16 * 1024, 64 * 1024, 256 * 1024}, Ways: ways},
			FilterL1I:    l1i,
			FilterL1D:    l1d,
			FilterPolicy: wp,
		}, fuzzProcs(seed, uint64(syscallEvery)), scfg)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}

		name := fmt.Sprintf("%v, L1-I %+v, L1-D %+v, L2 %+v, %+v", wp, l1i, l1d, l2Geom, scfg)
		check := func(what string, got, want uint64) {
			if got != want {
				t.Errorf("%s: %s: screening %d, exact %d", name, what, got, want)
			}
		}
		check("instructions", res.Instructions, st.Instructions)
		fs := res.Filter
		check("L1IAccesses", fs.L1IAccesses, st.L1IAccesses)
		check("L1IMisses", fs.L1IMisses, st.L1IMisses)
		check("L1DReads", fs.L1DReads, st.L1DReads)
		check("L1DReadMisses", fs.L1DReadMisses, st.L1DReadMisses)
		check("L1DWrites", fs.L1DWrites, st.L1DWrites)
		check("L1DWriteMisses", fs.L1DWriteMisses, st.L1DWriteMisses)
		check("WriteOnlyReadMisses", fs.WriteOnlyReadMisses, st.WriteOnlyReadMisses)
		check("SubblockWordMisses", fs.SubblockWordMisses, st.SubblockWordMisses)
		check("L2IReads", fs.L2IReads, st.L2IAccesses)
		check("L2DReads+L2DWrites", fs.L2DReads+fs.L2DWrites, st.L2DAccesses)

		gc, ok := res.Class(stackdist.ClassL2U).Counts(l2Geom.SizeWords, l2Geom.Ways)
		if !ok {
			t.Fatalf("%s: L2 not in grid", name)
		}
		check("L2 accesses", gc.Accesses(), st.L2IAccesses+st.L2DAccesses)
		check("L2 misses", gc.Misses(), st.L2IMisses+st.L2DMisses)

		gc, ok = res.Class(stackdist.ClassL1I).Counts(l1i.SizeWords, l1i.Ways)
		if !ok {
			t.Fatalf("%s: L1-I not in grid", name)
		}
		check("L1-I grid accesses", gc.Accesses(), st.L1IAccesses)
		check("L1-I grid misses", gc.Misses(), st.L1IMisses)

		if wp == core.WriteBack {
			gc, ok = res.Class(stackdist.ClassL1D).Counts(l1d.SizeWords, l1d.Ways)
			if !ok {
				t.Fatalf("%s: L1-D not in grid", name)
			}
			check("L1-D grid accesses", gc.Accesses(), st.L1DReads+st.L1DWrites)
			check("L1-D grid misses", gc.Misses(), st.L1DReadMisses+st.L1DWriteMisses)
		}
	})
}
