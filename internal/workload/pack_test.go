package workload

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// failingStream yields n good events, then stops; with err set it fails
// like an emulator that faults, reporting why through Err.
type failingStream struct {
	n   int
	err error
}

func (f *failingStream) Next(ev *trace.Event) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	ev.PC = uint32(f.n * 4)
	return true
}

func (f *failingStream) Err() error { return f.err }

// TestPackReportsStreamError pins where a live member's failure
// surfaces now that the scheduler steps cursors, which cannot fail:
// packing returns the stream's error with the member's name and the
// count of events it produced, and no recording, while a stream whose
// Err stays nil packs every event.
func TestPackReportsStreamError(t *testing.T) {
	streamErr := errors.New("emulator fault at instruction 3")
	members := []Member{
		{Name: "clean", NewStream: func(int) trace.Stream { return &failingStream{n: 4} }},
		{Name: "faulty", NewStream: func(int) trace.Stream { return &failingStream{n: 3, err: streamErr} }},
	}
	rs, err := Pack(members, 1, 0)
	if rs != nil || !errors.Is(err, streamErr) || !strings.Contains(err.Error(), `"faulty"`) || !strings.Contains(err.Error(), "after 3 instructions") {
		t.Fatalf("Pack with a failing member = %v, %v; want no recording and %v from \"faulty\" after 3 instructions", rs, err, streamErr)
	}
	rs, err = Pack(members[:1], 1, 0)
	if err != nil || len(rs) != 1 || rs[0].Trace.Len() != 4 {
		t.Fatalf("Pack of a clean member = %v, %v; want 4 events, nil", rs, err)
	}
}

// recovered runs f and returns the value it panicked with.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// isErr reports whether the panic value r is an error matching target.
func isErr(r any, target error) bool {
	err, _ := r.(error)
	return errors.Is(err, target)
}

// TestRecordingFailsEveryCall pins the memo's failure contract: a
// failed packing is kept as its error, never as a short recording, and
// every call panics with it, without packing again. A packing that
// panicked fails every later call too, though sync.Once counts it as
// done.
func TestRecordingFailsEveryCall(t *testing.T) {
	streamErr := errors.New("step limit exceeded")
	faulty := []Member{{Name: "faulty", NewStream: func(int) trace.Stream { return &failingStream{n: 5, err: streamErr} }}}
	packs := 0
	pack := func() ([]Recorded, error) {
		packs++
		return Pack(faulty, 1, 0)
	}
	var e recordEntry
	for call := 0; call < 3; call++ {
		r := recovered(func() { e.get(pack) })
		if !isErr(r, streamErr) {
			t.Fatalf("call %d panicked with %v, want %v", call, r, streamErr)
		}
	}
	if packs != 1 {
		t.Errorf("packed %d times, want once", packs)
	}

	var p recordEntry
	bug := func() ([]Recorded, error) { panic("emulator bug") }
	if r := recovered(func() { p.get(bug) }); r != "emulator bug" {
		t.Fatalf("first call panicked with %v, want the packing's own panic", r)
	}
	if r := recovered(func() { p.get(bug) }); !isErr(r, errPackPanicked) {
		t.Fatalf("second call panicked with %v, want %v", r, errPackPanicked)
	}
}

// TestRecordMatchesSerialPack checks that packing members in parallel
// changes no word: each member of Record(1) equals a serial trace.Pack
// of a fresh stream of that member, in name, class, length and every
// word. Under -race it also checks the packer's workers share nothing.
func TestRecordMatchesSerialPack(t *testing.T) {
	rec := Record(1)
	members := Members()
	if len(rec) != len(members) {
		t.Fatalf("Record(1) has %d members, want %d", len(rec), len(members))
	}
	for i, m := range members {
		want := trace.Pack(m.NewStream(1))
		got := rec[i]
		gw, _ := got.Trace.NewCursor().RawWords()
		ww, _ := want.NewCursor().RawWords()
		if got.Name != m.Name || got.Class != m.Class || got.Trace.Len() != want.Len() || !slices.Equal(gw, ww) {
			t.Errorf("member %d: Record(1) has %s (%s, %d events, %d words); serial Pack of %s (%s) has %d events, %d words",
				i, got.Name, got.Class, got.Trace.Len(), len(gw), m.Name, m.Class, want.Len(), len(ww))
		}
	}
}
