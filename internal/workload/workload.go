// Package workload assembles the multiprogramming suite that stands in
// for the paper's Table 1: ten benchmark kernels emulated from MIPS
// assembly (internal/progs) plus two calibrated synthetic traces
// (internal/synth) covering the very long FORTRAN tapes. It records each
// member once and replays the packed traces across many cache
// configurations — the equivalent of re-reading pixie trace tapes. The
// live streams it also hands out are for packing: the scheduler steps
// packed cursors only.
package workload

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/progs"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Member is one suite entry.
type Member struct {
	Name        string
	Class       progs.Class
	Description string
	// NewStream returns a fresh trace stream at the given scale
	// (scale 1 is roughly one to three million instructions).
	NewStream func(scale int) trace.Stream
}

// Members returns the suite in scheduler start order.
func Members() []Member {
	var members []Member
	for _, b := range progs.All() {
		b := b
		members = append(members, Member{
			Name:        b.Name,
			Class:       b.Class,
			Description: b.Description,
			NewStream: func(scale int) trace.Stream {
				cpu := b.NewCPU(scale)
				cpu.MaxSteps = 2_000_000_000
				return cpu
			},
		})
	}
	members = append(members,
		Member{
			Name:        "pattern",
			Class:       progs.Integer,
			Description: "synthetic integer trace: 384 KB code, 256 KB data, hot-set locality",
			NewStream: func(scale int) trace.Stream {
				return synth.New(synth.Config{
					Instructions: 1_500_000 * uint64(scale),
					LoadFrac:     0.22,
					StoreFrac:    0.08,
					CodeBytes:    384 * 1024,
					DataBytes:    256 * 1024,
					SeqFrac:      0.30,
					HotFrac:      0.62,
					HotBytes:     6 * 1024,
					StallProb:    0.25,
					SyscallEvery: 400_000,
					Seed:         0x5eed_0001,
				})
			},
		},
		Member{
			Name:        "fluid",
			Class:       progs.Double,
			Description: "synthetic FP trace: 256 KB code, 1 MB data, streaming plus hot set",
			NewStream: func(scale int) trace.Stream {
				return synth.New(synth.Config{
					Instructions: 1_500_000 * uint64(scale),
					LoadFrac:     0.28,
					StoreFrac:    0.12,
					CodeBytes:    256 * 1024,
					DataBytes:    1024 * 1024,
					SeqFrac:      0.50,
					HotFrac:      0.45,
					HotBytes:     8 * 1024,
					StallProb:    0.35,
					SyscallEvery: 500_000,
					Seed:         0x5eed_0002,
				})
			},
		},
	)
	return members
}

// Processes returns fresh live streams for every member, to be packed
// (trace.Pack) before sched.Run. Each call re-emulates the benchmarks.
func Processes(scale int) []sched.Process {
	members := Members()
	procs := make([]sched.Process, len(members))
	for i, m := range members {
		procs[i] = sched.Process{Name: m.Name, Stream: m.NewStream(scale)}
	}
	return procs
}

// PaperLike returns n synthetic members calibrated to the reference
// ratios the paper reports for its workload: ~20% loads, 7.25% stores,
// a ~3.5% L1-D miss ratio in a 4 KW cache (98% write hits), and a small
// L2 miss ratio. Each member's stream runs instructions × scale
// instructions. Experiments that depend quantitatively on those ratios
// (the Fig. 5 write-policy crossover) are validated against this
// workload as well as the harsher kernel suite; RecordPaperLike packs
// it for the scheduler.
func PaperLike(n int, instructions uint64) []Member {
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{
			Name: fmt.Sprintf("paperlike-%d", i),
			NewStream: func(scale int) trace.Stream {
				return synth.New(synth.Config{
					Instructions: instructions * uint64(scale),
					LoadFrac:     0.20,
					StoreFrac:    0.0725,
					CodeBytes:    32 * 1024,
					DataBytes:    64 * 1024,
					SeqFrac:      0.04,
					HotFrac:      0.92,
					HotBytes:     8 * 1024,
					StoreBurst:   6,
					StallProb:    0.20,
					SyscallEvery: 300_000,
					Seed:         0xbeef_0000 + uint64(i),
				})
			},
		}
	}
	return members
}

// Recorded is a suite member's captured trace in the packed
// representation, replayable any number of times. The trace is
// immutable and shared: every replayer takes its own cursor
// (Trace.NewCursor), so one recorded suite can feed any number of
// concurrently simulated configurations.
type Recorded struct {
	Name  string
	Class progs.Class
	Trace *trace.Recorded
}

// Pack records each member's trace at the given scale and returns the
// recordings in members' order. Members are independent streams, so up
// to GOMAXPROCS of them pack at once, each into its own index: the
// result is the one packing them in turn would give. With max > 0 each
// member is recorded only up to max events, which a run capped at max
// instructions cannot tell apart from the whole recording, since no
// process runs more instructions than the run does.
//
// A member's stream fails (an emulator fault, its step limit) here,
// where it is packed, because the scheduler steps packed cursors and a
// cursor cannot fail: the error names each failed member with the
// number of events it produced, and no recording is returned.
func Pack(members []Member, scale int, max uint64) ([]Recorded, error) {
	rs := make([]Recorded, len(members))
	errs := make([]error, len(members))
	RunParallel(runtime.GOMAXPROCS(0), len(members), func(i int) {
		m := members[i]
		s := m.NewStream(scale)
		src := s
		if max > 0 {
			src = trace.Limit(s, int(min(max, math.MaxInt)))
		}
		rec := trace.Pack(src)
		if err := trace.StreamErr(s); err != nil {
			errs[i] = fmt.Errorf("member %q: trace stream after %d instructions: %w", m.Name, rec.Len(), err)
			return
		}
		rs[i] = Recorded{Name: m.Name, Class: m.Class, Trace: rec}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return rs, nil
}

// recordKey names one memoized recording: the kernel suite at a scale,
// or n paper-like members of perProc instructions each.
type recordKey struct {
	scale   int
	n       int
	perProc uint64
}

// recordEntry memoizes one recording. The once gate means concurrent
// first callers share a single packing pass (and later callers pay
// only the map lookup), while different keys record independently
// without serializing on a global lock.
type recordEntry struct {
	once sync.Once
	rs   []Recorded
	err  error
}

var (
	recordMu    sync.Mutex // guards the map only, never held while recording
	recordCache = map[recordKey]*recordEntry{}
)

// errPackPanicked is what every call after the first reports for a
// recording whose packing panicked: once counts a panicking function as
// done, and the recording it left is empty.
var errPackPanicked = errors.New("workload: packing the recording panicked")

// recorded returns key's recording, packing it with pack on the first
// call.
func recorded(key recordKey, pack func() ([]Recorded, error)) []Recorded {
	recordMu.Lock()
	e, ok := recordCache[key]
	if !ok {
		e = &recordEntry{}
		recordCache[key] = e
	}
	recordMu.Unlock()
	return e.get(pack)
}

// get returns the entry's recording, packing it with pack on the first
// call. A failed packing is memoized as its error, never as a short
// recording, and every call panics with that error: Record's callers
// have no error path, and the run harness (internal/harness) turns the
// panic into a structured failure, as it does for experiments' must.
func (e *recordEntry) get(pack func() ([]Recorded, error)) []Recorded {
	e.once.Do(func() {
		e.err = errPackPanicked // replaced unless pack panics
		e.rs, e.err = pack()
	})
	if e.err != nil {
		panic(e.err)
	}
	return e.rs
}

// Record captures every member's full trace at the given scale. Results
// are memoized per scale and safe for concurrent callers: the returned
// slice and its traces are shared and immutable, so callers must only
// replay via cursors (which ReplayProcesses does). A member that fails
// to record panics every call with Pack's error.
func Record(scale int) []Recorded {
	if scale < 1 {
		scale = 1
	}
	return recorded(recordKey{scale: scale}, func() ([]Recorded, error) {
		return Pack(Members(), scale, 0)
	})
}

// RecordPaperLike captures the paper-calibrated synthetic workload
// (see PaperLike) in packed form, memoized per (n, perProc) with the
// same contract as Record: the returned traces are immutable and must
// be replayed via cursors. The one-pass screening engine and its exact
// cross-validation both replay this recording, so analyzer and
// simulator see bit-identical event streams.
func RecordPaperLike(n int, perProc uint64) []Recorded {
	if n < 1 {
		n = 1
	}
	return recorded(recordKey{n: n, perProc: perProc}, func() ([]Recorded, error) {
		return Pack(PaperLike(n, perProc), 1, 0)
	})
}

// ReplayProcesses returns scheduler processes that replay recorded
// traces from the beginning. Safe to call repeatedly — and from
// multiple goroutines, each driving its own system — for sweep runs.
func ReplayProcesses(recorded []Recorded) []sched.Process {
	procs := make([]sched.Process, len(recorded))
	for i, r := range recorded {
		procs[i] = sched.Process{Name: r.Name, Stream: r.Trace.NewCursor()}
	}
	return procs
}

// Row is one line of the Table 1 reproduction.
type Row struct {
	Name  string
	Class progs.Class
	Char  trace.Characterization
}

// Table1 characterizes every recorded member, reproducing the columns
// of the paper's Table 1.
func Table1(recorded []Recorded) []Row {
	rows := make([]Row, len(recorded))
	for i, r := range recorded {
		rows[i] = Row{Name: r.Name, Class: r.Class, Char: trace.Characterize(r.Trace.NewCursor())}
	}
	return rows
}

// FormatTable1 renders rows like the paper's Table 1.
func FormatTable1(rows []Row) string {
	out := fmt.Sprintf("%-10s %-3s %14s %8s %9s %9s\n",
		"Benchmark", "Cls", "Instructions", "Loads%", "Stores%", "Syscalls")
	var total trace.Characterization
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %-3s %14d %7.1f%% %8.1f%% %9d\n",
			r.Name, r.Class, r.Char.Instructions, r.Char.LoadPercent(),
			r.Char.StorePercent(), r.Char.Syscalls)
		total.Instructions += r.Char.Instructions
		total.Loads += r.Char.Loads
		total.Stores += r.Char.Stores
		total.Syscalls += r.Char.Syscalls
		total.StallCycles += r.Char.StallCycles
	}
	out += fmt.Sprintf("%-10s %-3s %14d %7.1f%% %8.1f%% %9d   (base CPI %.3f)\n",
		"total", "", total.Instructions, total.LoadPercent(),
		total.StorePercent(), total.Syscalls, total.BaseCPI())
	return out
}
