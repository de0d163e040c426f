package core

import (
	"testing"

	"repro/internal/trace"
)

// batchEvents builds a mixed instruction/load/store event sequence with
// a syscall at the given index (or none when sysAt < 0).
func batchEvents(n, sysAt int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{PC: uint32(0x40000 + 4*i), Stall: uint8(i % 3)}
		switch i % 5 {
		case 1:
			evs[i].Kind = trace.Load
			evs[i].Size = 4
			evs[i].Data = uint32(0x1000 + 8*i)
		case 3:
			evs[i].Kind = trace.Store
			evs[i].Size = 4
			evs[i].Data = uint32(0x2000 + 8*i)
		}
	}
	if sysAt >= 0 {
		evs[sysAt].Syscall = true
	}
	return evs
}

// TestStepBatchMatchesStep runs the same event sequence through Step
// and through StepBatch on two fresh systems and requires identical
// final clocks and statistics.
func TestStepBatchMatchesStep(t *testing.T) {
	evs := batchEvents(400, -1)

	serial := newSys(t, Base())
	for i := range evs {
		if err := serial.Step(pid, &evs[i]); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}

	batched := newSys(t, Base())
	done := 0
	for done < len(evs) {
		n, err := batched.StepBatch(pid, evs[done:])
		if err != nil {
			t.Fatalf("StepBatch at %d: %v", done, err)
		}
		if n <= 0 {
			t.Fatalf("StepBatch returned n=%d", n)
		}
		done += n
	}
	if done != len(evs) {
		t.Fatalf("batched run executed %d events, want %d", done, len(evs))
	}
	if serial.Now() != batched.Now() {
		t.Fatalf("clock mismatch: serial %d, batched %d", serial.Now(), batched.Now())
	}
	if serial.Stats() != batched.Stats() {
		t.Fatalf("stats mismatch:\nserial  %+v\nbatched %+v", serial.Stats(), batched.Stats())
	}
}

// TestStepBatchStopsAfterSyscall checks no batch ever crosses an
// executed syscall event, so a scheduler can switch at exactly the
// instruction a serial Step loop would. (A batch may stop earlier than
// the syscall when its cycle budget trips — a cold fetch miss burns
// many cycles — so the sequence is driven to completion batch by
// batch.)
func TestStepBatchStopsAfterSyscall(t *testing.T) {
	const sysAt = 7
	evs := batchEvents(50, sysAt)
	s := newSys(t, Base())
	done := 0
	for done < len(evs) {
		n, err := s.StepBatch(pid, evs[done:])
		if err != nil {
			t.Fatalf("StepBatch at %d: %v", done, err)
		}
		before := done
		done += n
		if before <= sysAt && done > sysAt+1 {
			t.Fatalf("batch starting at %d crossed the syscall at %d (ran to %d)", before, sysAt, done)
		}
		if before <= sysAt && done == sysAt+1 && !evs[done-1].Syscall {
			t.Fatalf("batch ending at %d did not end on the syscall", done)
		}
	}
	if got := s.Stats().Instructions; got != uint64(len(evs)) {
		t.Fatalf("Instructions = %d, want %d", got, len(evs))
	}
}

// TestStepBatchCycleBudget checks the batch stops once the clock has
// advanced at least len(evs) cycles since entry, with overshoot bounded
// by the cost of the final instruction — so a caller bounding a batch
// by a cycle deadline recovers the exact serial switch point by
// re-checking Now afterwards.
func TestStepBatchCycleBudget(t *testing.T) {
	s := newSys(t, Base())
	// Warm the instruction cache so every batched instruction costs
	// exactly 1 issue + 10 stall = 11 cycles, making the bound exact.
	warm := trace.Event{PC: 0x40000, Stall: 10}
	if err := s.Step(pid, &warm); err != nil {
		t.Fatalf("warmup Step: %v", err)
	}
	evs := make([]trace.Event, 100)
	for i := range evs {
		evs[i] = trace.Event{PC: 0x40000, Stall: 10}
	}
	start := s.Now()
	n, err := s.StepBatch(pid, evs)
	if err != nil {
		t.Fatalf("StepBatch: %v", err)
	}
	if n == len(evs) {
		t.Fatalf("budget did not stop the batch")
	}
	burned := s.Now() - start
	if burned < uint64(len(evs)) {
		t.Fatalf("stopped after %d cycles, before the %d-cycle budget", burned, len(evs))
	}
	if burned >= uint64(len(evs))+11 {
		t.Fatalf("overshoot %d cycles, want < 11 (one instruction)", burned-uint64(len(evs)))
	}
}

// TestStepBatchLatchedFault checks a faulted system reports the fault
// while still counting the attempted instruction, mirroring a serial
// caller that counts the event it handed to Step.
func TestStepBatchLatchedFault(t *testing.T) {
	s := newSys(t, Base())
	wantErr := s.CheckInvariants()
	if wantErr != nil {
		t.Fatalf("fresh system fails invariants: %v", wantErr)
	}
	s.fail(ErrWriteBufferOverflow)
	evs := batchEvents(10, -1)
	n, err := s.StepBatch(pid, evs)
	if err == nil {
		t.Fatalf("StepBatch on faulted system returned nil error")
	}
	if n != 1 {
		t.Fatalf("StepBatch on faulted system returned n=%d, want 1", n)
	}
	if n2, err2 := s.StepBatch(pid, nil); n2 != 0 || err2 == nil {
		t.Fatalf("StepBatch(nil) on faulted system = (%d, %v), want (0, err)", n2, err2)
	}
}

// TestStepScanLatchedFault checks StepScan keeps StepBatch's fault
// contract: a faulted system consumes and counts the one instruction it
// attempted, returning the fault, and a zero budget consumes nothing.
func TestStepScanLatchedFault(t *testing.T) {
	s := newSys(t, Base())
	s.fail(ErrWriteBufferOverflow)
	c := trace.Pack(trace.NewMemTrace(batchEvents(10, -1))).NewCursor()
	if n, _, err := s.StepScan(pid, c, 100); n != 1 || err == nil {
		t.Fatalf("StepScan on faulted system = (%d, %v), want (1, err)", n, err)
	}
	if n, _, err := s.StepScan(pid, c, 0); n != 0 || err == nil {
		t.Fatalf("StepScan with no budget on faulted system = (%d, %v), want (0, err)", n, err)
	}
	left := 0
	for ev := (trace.Event{}); c.Next(&ev); {
		left++
	}
	if left != 9 {
		t.Fatalf("%d events left on the cursor, want 9: the attempted one is consumed", left)
	}
}
