package workload

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestMembersComplete(t *testing.T) {
	members := Members()
	if len(members) != 16 {
		t.Fatalf("suite has %d members, want 16", len(members))
	}
	seen := map[string]bool{}
	classes := map[string]int{}
	for _, m := range members {
		if m.Name == "" || m.NewStream == nil {
			t.Fatalf("malformed member %+v", m)
		}
		if seen[m.Name] {
			t.Fatalf("duplicate member %q", m.Name)
		}
		seen[m.Name] = true
		classes[string(m.Class)]++
	}
	if classes["I"] == 0 || classes["S"] == 0 || classes["D"] == 0 {
		t.Fatalf("class mix %v must include I, S and D", classes)
	}
}

func TestProcessesFreshStreams(t *testing.T) {
	a := Processes(1)
	b := Processes(1)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatal("Processes length mismatch")
	}
	var ev trace.Event
	// Draining one run's stream must not affect the other's.
	n := 0
	for a[0].Stream.Next(&ev) && n < 1000 {
		n++
	}
	if !b[0].Stream.Next(&ev) {
		t.Fatal("second Processes call shares stream state with the first")
	}
}

func TestRecordAndReplay(t *testing.T) {
	rec := Record(1)
	if len(rec) != 16 {
		t.Fatalf("recorded %d members", len(rec))
	}
	if got := Record(1); &got[0] != &rec[0] {
		// Memoized: identical backing array.
		if got[0].Trace != rec[0].Trace {
			t.Fatal("Record not memoized")
		}
	}
	p1 := ReplayProcesses(rec)
	p2 := ReplayProcesses(rec)
	var e1, e2 trace.Event
	for i := 0; i < 100; i++ {
		ok1 := p1[0].Stream.Next(&e1)
		ok2 := p2[0].Stream.Next(&e2)
		if !ok1 || !ok2 || e1 != e2 {
			t.Fatal("replays diverge")
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rec := Record(1)
	rows := Table1(rec)
	if len(rows) != len(rec) {
		t.Fatalf("Table1 rows %d, want %d", len(rows), len(rec))
	}
	var total uint64
	for _, r := range rows {
		if r.Char.Instructions == 0 {
			t.Errorf("%s: empty trace", r.Name)
		}
		total += r.Char.Instructions
	}
	if total < 10_000_000 {
		t.Fatalf("suite total %d instructions; want >= 10M at scale 1", total)
	}
	s := FormatTable1(rows)
	for _, want := range []string{"Benchmark", "sieve", "fluid", "total", "base CPI"} {
		if !strings.Contains(s, want) {
			t.Errorf("FormatTable1 missing %q:\n%s", want, s)
		}
	}
	t.Logf("\n%s", s)
}

func TestPaperLikeCalibration(t *testing.T) {
	members := PaperLike(8, 400_000)
	if len(members) != 8 {
		t.Fatalf("PaperLike(8) returned %d members", len(members))
	}
	// Characterize one member: the mix must match the paper's ratios.
	c := trace.Characterize(members[0].NewStream(1))
	if got := c.LoadPercent(); got < 18 || got > 22 {
		t.Errorf("load%% = %.1f, want ~20", got)
	}
	if got := c.StorePercent(); got < 6 || got > 9 {
		t.Errorf("store%% = %.1f, want ~7.25", got)
	}
	if c.Syscalls == 0 {
		t.Error("no voluntary syscalls")
	}
	// Distinct seeds: two processes must differ.
	e1 := trace.Collect(PaperLike(2, 1000)[0].NewStream(1)).Events()
	e2 := trace.Collect(PaperLike(2, 1000)[1].NewStream(1)).Events()
	same := 0
	for i := range e1 {
		if e1[i] == e2[i] {
			same++
		}
	}
	if same == len(e1) {
		t.Error("paper-like processes share a seed")
	}
}
