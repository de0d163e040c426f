package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func sampleEvents() []Event {
	return []Event{
		{PC: 0x0040_0000, Kind: None},
		{PC: 0x0040_0004, Kind: Load, Data: 0x1000_0000, Size: 4, Stall: 1},
		{PC: 0x0040_0008, Kind: Store, Data: 0x1000_0004, Size: 2},
		{PC: 0x0040_000c, Kind: None, Syscall: true, Stall: 3},
	}
}

func TestFileRoundTripBuffer(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteAll(&buf, NewMemTrace(sampleEvents()))
	if err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	if n != 4 {
		t.Fatalf("WriteAll count = %d, want 4", n)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	want := sampleEvents()
	if got.Len() != len(want) {
		t.Fatalf("ReadAll len = %d, want %d", got.Len(), len(want))
	}
	for i, ev := range Collect(got.NewCursor()).Events() {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestFileRoundTripSeekable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.gtrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteAll(f, NewMemTrace(sampleEvents())); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got, err := ReadAll(rf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if got.Len() != len(sampleEvents()) {
		t.Fatalf("len = %d, want %d", got.Len(), len(sampleEvents()))
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	data := append([]byte("XXXX"), make([]byte, 12)...)
	if _, err := NewReader(bytes.NewReader(data)); err == nil {
		t.Fatal("NewReader accepted bad magic")
	}
}

func TestReaderRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewMemTrace(nil)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // corrupt version
	if _, err := NewReader(bytes.NewReader(data)); err == nil {
		t.Fatal("NewReader accepted bad version")
	}
}

func TestReaderRejectsShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("GT"))); err == nil {
		t.Fatal("NewReader accepted short header")
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	// Write to a seekable file so the header carries a real count, then
	// truncate the last record.
	path := filepath.Join(t.TempDir(), "trunc.gtrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteAll(f, NewMemTrace(sampleEvents())); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-recordBytes]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	n := 0
	for r.Next(&ev) {
		n++
	}
	if n != len(sampleEvents())-1 {
		t.Fatalf("read %d events before truncation, want %d", n, len(sampleEvents())-1)
	}
	if r.Err() == nil {
		t.Fatal("Reader did not report truncation")
	}
}

func TestUnseekableCountZeroReadsToEOF(t *testing.T) {
	// A bytes.Buffer destination cannot seek, so the header count stays
	// zero and the reader must fall back to reading until EOF.
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewMemTrace(sampleEvents())); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	n := 0
	for r.Next(&ev) {
		n++
	}
	if n != len(sampleEvents()) {
		t.Fatalf("read %d events, want %d", n, len(sampleEvents()))
	}
	if r.Err() != nil {
		t.Fatalf("unexpected reader error: %v", r.Err())
	}
}

func TestWriterCloseFlushes(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Event{PC: 4}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= headerBytes+recordBytes {
		// Buffered writer may or may not have flushed yet; only assert
		// the final state after Close.
		t.Log("writer flushed eagerly")
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != headerBytes+recordBytes {
		t.Fatalf("file size = %d, want %d", buf.Len(), headerBytes+recordBytes)
	}
}

type failingWriter struct{ n int }

func (fw *failingWriter) Write(p []byte) (int, error) {
	if fw.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > fw.n {
		p = p[:fw.n]
	}
	fw.n -= len(p)
	return len(p), nil
}

func TestWriterPropagatesErrors(t *testing.T) {
	// Enough budget for the header, then fail during record writes.
	fw := &failingWriter{n: headerBytes}
	tw, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	// Push far more than the bufio buffer so the failure surfaces.
	var ev Event
	var wroteErr error
	for i := 0; i < 1<<16; i++ {
		if wroteErr = tw.Write(ev); wroteErr != nil {
			break
		}
	}
	if wroteErr == nil {
		wroteErr = tw.Close()
	}
	if wroteErr == nil {
		t.Fatal("no error from writer over failing destination")
	}
}

// Property: any event slice survives a file round trip bit-exactly.
func TestFileRoundTripProperty(t *testing.T) {
	f := func(seed []uint32) bool {
		events := make([]Event, len(seed))
		for i, s := range seed {
			events[i] = Event{
				PC:      s &^ 3,
				Data:    s * 2654435761,
				Kind:    Kind(s % 3),
				Size:    uint8(1 << (s % 4)),
				Stall:   uint8(s % 11),
				Syscall: s%13 == 0,
			}
		}
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, NewMemTrace(events)); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		if got.Len() != len(events) {
			return false
		}
		for i, ev := range Collect(got.NewCursor()).Events() {
			if ev != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
