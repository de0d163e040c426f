// Package workload assembles the multiprogramming suite that stands in
// for the paper's Table 1: fourteen benchmark kernels emulated from MIPS
// assembly (internal/progs) plus two calibrated synthetic traces
// (internal/synth) covering the very long FORTRAN tapes, sixteen
// members in all. It records each member once and replays the packed
// traces across many cache configurations — the equivalent of
// re-reading pixie trace tapes. A recording grows as its cursors read
// it (trace.Record), so a member is emulated only when a run first
// admits it and only as far as any run has read: a capped run records a
// prefix of each member it reaches, and a member's emulator fault fails
// the run that reaches it, naming the member.
package workload

import (
	"fmt"
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

// PaperLike returns n synthetic members calibrated to the reference
// ratios the paper reports for its workload: ~20% loads, 7.25% stores,
// a ~3.5% L1-D miss ratio in a 4 KW cache (98% write hits), and a small
// L2 miss ratio. Each member's stream runs instructions × scale
// instructions. Experiments that depend quantitatively on those ratios
// (the Fig. 5 write-policy crossover) are validated against this
// workload as well as the harsher kernel suite; RecordPaperLike records
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
// representation, replayable any number of times. The trace is shared
// and grows on demand: every replayer takes its own cursor
// (Trace.NewCursor), so one recorded suite can feed any number of
// concurrently simulated configurations, and together they record only
// the prefix of each member that the furthest of them reads.
type Recorded struct {
	Name  string
	Class progs.Class
	Trace *trace.Recorded
}

// recordKey names one memoized recording: the kernel suite at a scale,
// or n paper-like members of perProc instructions each.
type recordKey struct {
	scale   int
	n       int
	perProc uint64
}

var (
	recordMu    sync.Mutex
	recordCache = map[recordKey][]Recorded{}
)

// recorded returns key's recordings, creating them from members() at
// scale on the first call. Creating them starts each member's source
// and encodes nothing, so it is cheap enough to hold the lock through.
func recorded(key recordKey, members func() []Member, scale int) []Recorded {
	recordMu.Lock()
	defer recordMu.Unlock()
	rs, ok := recordCache[key]
	if !ok {
		rs = record(members(), scale)
		recordCache[key] = rs
	}
	return rs
}

// record returns fresh recordings of members at scale, in their order,
// each growing on demand from a new stream of its member.
func record(members []Member, scale int) []Recorded {
	rs := make([]Recorded, len(members))
	for i, m := range members {
		rs[i] = Recorded{Name: m.Name, Class: m.Class, Trace: trace.Record(m.NewStream(scale))}
	}
	return rs
}

// Record returns the suite's recordings at the given scale, memoized
// per scale and safe for concurrent callers. The returned slice and its
// traces are shared, so callers must only replay via cursors (which
// ReplayProcesses does). The traces grow as cursors read them, so the
// call itself emulates nothing.
func Record(scale int) []Recorded {
	if scale < 1 {
		scale = 1
	}
	return recorded(recordKey{scale: scale}, Members, scale)
}

// RecordPaperLike returns the recordings of the paper-calibrated
// synthetic workload (see PaperLike), memoized per (n, perProc) with the
// same contract as Record. The one-pass screening engine and its exact
// cross-validation both replay this recording, so analyzer and
// simulator see bit-identical event streams.
func RecordPaperLike(n int, perProc uint64) []Recorded {
	if n < 1 {
		n = 1
	}
	return recorded(recordKey{n: n, perProc: perProc}, func() []Member { return PaperLike(n, perProc) }, 1)
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
// of the paper's Table 1. It reads each trace to its end, and fails
// with the member's name if its source failed on the way.
func Table1(recorded []Recorded) ([]Row, error) {
	rows := make([]Row, len(recorded))
	for i, r := range recorded {
		c := r.Trace.NewCursor()
		rows[i] = Row{Name: r.Name, Class: r.Class, Char: trace.Characterize(c)}
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("workload: member %q: %w", r.Name, err)
		}
	}
	return rows, nil
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
