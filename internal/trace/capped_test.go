package trace_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCappedRunRecordsWhatItReads bounds what a capped run records on
// fresh recordings of the scale-1 suite: each member holds no more than
// the packed size of the events the run read from it plus one chunk,
// and a member the run never admitted holds nothing.
func TestCappedRunRecordsWhatItReads(t *testing.T) {
	members := workload.Members()
	rs := make([]workload.Recorded, len(members))
	for i, m := range members {
		rs[i] = workload.Recorded{Name: m.Name, Class: m.Class, Trace: trace.Record(m.NewStream(1))}
	}
	res, err := sim.Run(core.Base(), workload.ReplayProcesses(rs), sched.Config{Level: 8, TimeSlice: 20_000, MaxInstructions: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i, r := range rs {
		read := res.Sched.PerProcess[r.Name]
		readBytes := trace.Pack(trace.Limit(members[i].NewStream(1), int(read))).Bytes()
		got := r.Trace.Bytes()
		if got > readBytes+trace.ChunkBytes || read == 0 && got != 0 {
			t.Errorf("%s: recorded %d bytes for %d events read (%d bytes packed)", r.Name, got, read, readBytes)
		}
		if read > 0 {
			admitted++
		}
	}
	if admitted != 8 {
		t.Errorf("the run read %d members, want the 8 it admits", admitted)
	}
}
