package core

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// releaseConfigs covers cache geometries that share arrays across a
// size class: Base's direct-mapped 4 W-line L1s and Optimized's L2-I
// both have 1024 lines, a 2-way L1-I slices the per-set state shorter
// than its class, and a 3-way L1-D uses 768 lines of a 1024-line class.
// The subblock configuration leaves word-valid masks behind.
func releaseConfigs() []Config {
	base := Base()
	opt := Optimized()
	opt.L1I.Ways = 2
	sub := writeThroughConfig(Subblock, LPSNone)
	sub.L1D = CacheGeom{SizeWords: 3 * 1024, LineWords: 4, Ways: 3}
	return []Config{base, opt, sub}
}

// cachesOf lists a system's distinct cache arrays.
func cachesOf(s *System) []*cache {
	cs := []*cache{s.l1i, s.l1d, s.l2i.c}
	if s.l2d != s.l2i {
		cs = append(cs, s.l2d.c)
	}
	return cs
}

// scanAll steps all of rec through s as one process and drains the
// write buffer.
func scanAll(s *System, rec *trace.Recorded) error {
	cur := rec.NewCursor()
	for {
		n, _, err := s.StepScan(1, cur, 1<<30)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	s.DrainWriteBuffer()
	return nil
}

// replayScan runs rec on a new system of cfg, returns its results and
// releases it.
func replayScan(cfg Config, rec *trace.Recorded) (Stats, uint64, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return Stats{}, 0, err
	}
	defer s.Release()
	if err := scanAll(s, rec); err != nil {
		return Stats{}, 0, err
	}
	return s.Stats(), s.CacheFingerprint(), nil
}

// TestRecycledArraysStartEmpty builds systems back to back, each on
// arrays that released systems left dirty, and checks that every one
// starts in the state fresh arrays give (every tag invalid; flags,
// subblock masks and replacement state zero) and ends with the results
// of the first system of its configuration.
func TestRecycledArraysStartEmpty(t *testing.T) {
	rec := warmTestTrace(t, 60_000)
	cfgs := releaseConfigs()
	type outcome struct {
		stats   Stats
		now, fp uint64
	}
	want := make([]outcome, len(cfgs))
	released := map[*cacheArrays]bool{}
	reused := 0
	for round := 0; round < 4; round++ {
		for i, cfg := range cfgs {
			s := newSys(t, cfg)
			for _, c := range cachesOf(s) {
				if released[c.arrays] {
					reused++
				}
				for slot, tag := range c.tags {
					if tag != tagInvalid || c.flags[slot] != 0 || c.masks[slot] != 0 {
						t.Fatalf("round %d config %d: new cache %+v slot %d holds tag %#x flags %#x mask %#x",
							round, i, c.geom, slot, tag, c.flags[slot], c.masks[slot])
					}
				}
				for set, w := range c.lruWay {
					if w != 0 {
						t.Fatalf("round %d config %d: new cache %+v set %d has MRU way %d", round, i, c.geom, set, w)
					}
				}
			}
			if err := scanAll(s, rec); err != nil {
				t.Fatalf("round %d config %d: %v", round, i, err)
			}
			got := outcome{s.Stats(), s.Now(), s.CacheFingerprint()}
			if round == 0 {
				want[i] = got
			} else if got != want[i] {
				t.Errorf("round %d config %d: %+v, want %+v as in round 0", round, i, got, want[i])
			}
			for _, c := range cachesOf(s) {
				released[c.arrays] = true
			}
			s.Release()
		}
	}
	if reused == 0 {
		t.Fatal("no system was built on released arrays")
	}
}

// TestReleaseTwiceHandsArraysBackOnce: a second Release is a no-op, so
// the next two systems never share arrays.
func TestReleaseTwiceHandsArraysBackOnce(t *testing.T) {
	s := newSys(t, Base())
	s.Release()
	s.Release()
	a, b := newSys(t, Base()), newSys(t, Base())
	seen := map[*cacheArrays]bool{}
	for _, c := range append(cachesOf(a), cachesOf(b)...) {
		if seen[c.arrays] {
			t.Fatalf("two live caches share the arrays of %+v", c.geom)
		}
		seen[c.arrays] = true
	}
}

// TestRecycledArraysAcrossGoroutines builds, runs and releases systems
// from several goroutines at once, as a sweep's workers do, and requires
// every run to match a serial one.
func TestRecycledArraysAcrossGoroutines(t *testing.T) {
	rec := warmTestTrace(t, 20_000)
	cfgs := releaseConfigs()
	type outcome struct {
		stats Stats
		fp    uint64
	}
	want := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		st, fp, err := replayScan(cfg, rec)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		want[i] = outcome{st, fp}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (g + round) % len(cfgs)
				st, fp, err := replayScan(cfgs[i], rec)
				if err != nil {
					t.Errorf("goroutine %d config %d: %v", g, i, err)
					return
				}
				if got := (outcome{st, fp}); got != want[i] {
					t.Errorf("goroutine %d round %d config %d: %+v, want %+v", g, round, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
