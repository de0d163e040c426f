// Package trace defines the address-trace event model shared by the
// benchmark tracers (the pixie equivalent), the multiprogramming
// scheduler, and the cache simulator.
//
// One Event describes one executed instruction: its program counter, an
// optional data reference, the CPU stall cycles attributable to the
// instruction itself (load-use interlocks, branches, multicycle
// operations), and whether the instruction was a voluntary system call.
// A trace is a finite stream of events; Stream is the consumption
// interface, MemTrace a plain in-memory list of events, and Recorded the
// packed recording whose Cursors the scheduler replays across many cache
// configurations.
package trace

import "fmt"

// Kind classifies the data reference made by an instruction.
type Kind uint8

const (
	// None marks an instruction with no data reference.
	None Kind = iota
	// Load marks a data read.
	Load
	// Store marks a data write.
	Store
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// WordBytes is the machine word size of the target architecture (MIPS-I,
// 32-bit words). Cache sizes in the paper are quoted in words (KW).
const WordBytes = 4

// Event is one executed instruction of a traced benchmark.
//
// The zero value is a plain single-cycle instruction at PC 0 with no data
// reference, which is a valid event.
type Event struct {
	// PC is the byte address of the instruction.
	PC uint32
	// Data is the byte address of the data reference; meaningful only
	// when Kind is Load or Store.
	Data uint32
	// Kind says whether the instruction loads, stores, or neither.
	Kind Kind
	// Size is the data reference width in bytes (1, 2, 4, or 8);
	// meaningful only when Kind is Load or Store. Partial-word stores
	// (Size < WordBytes) matter to the subblock-placement write policy.
	Size uint8
	// Stall is the number of CPU (non-memory) stall cycles charged to
	// this instruction: load-use interlocks, taken-branch bubbles, and
	// multicycle integer/floating-point operations.
	Stall uint8
	// Syscall marks a voluntary system call, which the scheduler treats
	// as a context-switch point (the paper pessimistically assumes every
	// voluntary system call switches).
	Syscall bool
}

// Stream is a finite sequence of events. Next fills *ev and reports
// whether an event was produced; it returns false exactly once, after the
// final event, and every call thereafter.
//
// A stream that can fail mid-sequence (a Reader over a corrupt tape, a
// pipe that breaks) additionally implements Err() error, reporting why
// Next returned false. Consumers distinguish clean exhaustion from
// failure with StreamErr.
type Stream interface {
	Next(ev *Event) bool
}

// StreamErr reports why s stopped producing events: the stream's Err()
// when it implements one and has failed, nil for streams that cannot
// fail or that ended cleanly. Call it after Next returns false.
func StreamErr(s Stream) error {
	if es, ok := s.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// BatchStream is a Stream that can also expose runs of upcoming events
// in bulk. Batch returns up to max upcoming events WITHOUT consuming
// them; an empty result means the stream is exhausted (for streams that
// also implement Err, check StreamErr as with Next). The returned
// slice is only valid until the next Batch call, and must not be
// mutated. Skip then consumes n events, where n must not exceed the
// length of the last Batch result; a consumer that processes fewer
// events than it peeked calls Skip with the smaller count and the rest
// are re-presented by the next Batch or Next.
//
// Cursor implements it. The scheduler steps cursors straight off their
// packed words; it takes Batch only from a BatchStream that is not a
// cursor, which means the timing wrappers of perfbench's traced replay.
type BatchStream interface {
	Stream
	Batch(max int) []Event
	Skip(n int)
}

// MemTrace is an in-memory trace that can be replayed from the start any
// number of times. The zero value is an empty trace.
type MemTrace struct {
	events []Event
	pos    int
}

// NewMemTrace returns a trace over events. The slice is retained, not
// copied.
func NewMemTrace(events []Event) *MemTrace {
	return &MemTrace{events: events}
}

// Collect drains s into a new MemTrace.
func Collect(s Stream) *MemTrace {
	var t MemTrace
	var ev Event
	for s.Next(&ev) {
		t.events = append(t.events, ev)
	}
	return &t
}

// Append adds an event to the end of the trace.
func (t *MemTrace) Append(ev Event) {
	t.events = append(t.events, ev)
}

// Len returns the number of events in the trace.
func (t *MemTrace) Len() int { return len(t.events) }

// Events returns the underlying event slice (not a copy).
func (t *MemTrace) Events() []Event { return t.events }

// Reset rewinds the trace to its first event.
func (t *MemTrace) Reset() { t.pos = 0 }

// Next implements Stream.
func (t *MemTrace) Next(ev *Event) bool {
	if t.pos >= len(t.events) {
		return false
	}
	*ev = t.events[t.pos]
	t.pos++
	return true
}

// Clone returns a new MemTrace sharing the same events, rewound to the
// start. Clones let several consumers replay one trace independently.
func (t *MemTrace) Clone() *MemTrace {
	return &MemTrace{events: t.events}
}

// FuncStream adapts a generator function to the Stream interface.
type FuncStream func(ev *Event) bool

// Next implements Stream by calling the function.
func (f FuncStream) Next(ev *Event) bool { return f(ev) }

// Limit returns a stream that yields at most n events of s.
func Limit(s Stream, n int) Stream {
	remaining := n
	return FuncStream(func(ev *Event) bool {
		if remaining <= 0 {
			return false
		}
		remaining--
		return s.Next(ev)
	})
}
