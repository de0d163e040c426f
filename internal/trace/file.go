package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace-file format ("GTRC"):
//
//	header:  4-byte magic "GTRC" | uint16 version | uint16 reserved |
//	         uint64 event count
//	records: 12 bytes each, little endian:
//	         uint32 PC | uint32 Data | uint8 Kind | uint8 Size |
//	         uint8 Stall | uint8 flags (bit 0: syscall)
//
// The format is deliberately fixed-width so files can be sampled and
// seeked without decoding, like pixie trace tapes.

const (
	fileMagic   = "GTRC"
	fileVersion = 1
	recordBytes = 12
	headerBytes = 16
)

const flagSyscall = 1 << 0

// ErrBadFormat is returned when a trace file fails header or record
// validation.
var ErrBadFormat = errors.New("trace: bad file format")

// Writer streams events into an io.Writer in the binary trace format.
// Close must be called to flush buffered records and to back-patch the
// event count when the underlying writer supports seeking.
type Writer struct {
	w     *bufio.Writer
	seek  io.WriteSeeker // nil if the destination cannot seek
	count uint64
	rec   [recordBytes]byte
	err   error
}

// NewWriter writes a trace header to w and returns a Writer. If w also
// implements io.WriteSeeker the event count in the header is finalized on
// Close; otherwise the count is written as zero and readers fall back to
// reading until EOF.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	if ws, ok := w.(io.WriteSeeker); ok {
		tw.seek = ws
	}
	var hdr [headerBytes]byte
	copy(hdr[:4], fileMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], fileVersion)
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Write appends one event to the file.
func (tw *Writer) Write(ev Event) error {
	if tw.err != nil {
		return tw.err
	}
	r := tw.rec[:]
	binary.LittleEndian.PutUint32(r[0:4], ev.PC)
	binary.LittleEndian.PutUint32(r[4:8], ev.Data)
	r[8] = uint8(ev.Kind)
	r[9] = ev.Size
	r[10] = ev.Stall
	var flags uint8
	if ev.Syscall {
		flags |= flagSyscall
	}
	r[11] = flags
	if _, err := tw.w.Write(r); err != nil {
		tw.err = err
		return err
	}
	tw.count++
	return nil
}

// Count returns the number of events written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Close flushes buffered records and, when possible, back-patches the
// event count in the header.
func (tw *Writer) Close() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.w.Flush(); err != nil {
		tw.err = err
		return err
	}
	if tw.seek != nil {
		if _, err := tw.seek.Seek(8, io.SeekStart); err != nil {
			tw.err = err
			return err
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], tw.count)
		if _, err := tw.seek.Write(n[:]); err != nil {
			tw.err = err
			return err
		}
	}
	return nil
}

// Reader decodes a binary trace file as a Stream.
//
// A corrupt or truncated tape surfaces through Err with the record
// index and byte offset of the damage. Because records are fixed width,
// a reader that hits a corrupt record (not a truncated one) can call
// Resync to skip it and continue with the next record — useful when
// salvaging a long tape with isolated damage.
type Reader struct {
	r        *bufio.Reader
	count    uint64 // events remaining per header; ^0 means "until EOF"
	index    uint64 // records successfully decoded so far
	rec      [recordBytes]byte
	err      error
	syncable bool // the failed record was fully read: Resync may skip it
}

// NewReader validates the header of r and returns a streaming Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != fileMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != fileVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadFormat, v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if count == 0 {
		count = ^uint64(0)
	}
	return &Reader{r: br, count: count}, nil
}

// Err returns the first error encountered while reading records, if any.
// A clean end of trace leaves Err nil.
func (tr *Reader) Err() error { return tr.err }

// Index returns the number of records successfully decoded so far; when
// Err is non-nil this is the index of the record the error occurred in.
func (tr *Reader) Index() uint64 { return tr.index }

// Offset returns the byte offset of the next (or, after an error, the
// failing) record in the file.
func (tr *Reader) Offset() uint64 { return headerBytes + tr.index*recordBytes }

// Resync clears a record-content error and skips past the bad record so
// reading can continue at the next record boundary. It reports whether
// the reader recovered: truncation and I/O errors are not resyncable
// because the stream has no more bytes to realign on. The skipped
// record still counts against the header's event count.
func (tr *Reader) Resync() bool {
	if tr.err == nil || !tr.syncable {
		return false
	}
	// The bad record's bytes were already consumed; just step over it.
	tr.err = nil
	tr.syncable = false
	tr.index++
	if tr.count != ^uint64(0) {
		tr.count--
	}
	return true
}

// fail records the first error with the damaged record's coordinates.
func (tr *Reader) fail(syncable bool, format string, args ...any) {
	args = append(args, tr.index, tr.Offset())
	tr.err = fmt.Errorf(format+" (record %d, byte offset %d)", args...)
	tr.syncable = syncable
}

// Next implements Stream.
func (tr *Reader) Next(ev *Event) bool {
	if tr.err != nil || tr.count == 0 {
		return false
	}
	if n, err := io.ReadFull(tr.r, tr.rec[:]); err != nil {
		if err != io.EOF {
			tr.fail(false, "trace: record cut short after %d of %d bytes: %w",
				n, recordBytes, err)
		} else if tr.count != ^uint64(0) {
			tr.fail(false, "trace: file truncated %d records early: %w",
				tr.count, io.ErrUnexpectedEOF)
		}
		tr.count = 0
		return false
	}
	r := tr.rec[:]
	if k := Kind(r[8]); k > Store {
		tr.fail(true, "%w: unknown event kind %d", ErrBadFormat, uint8(k))
		return false
	}
	if f := r[11]; f&^flagSyscall != 0 {
		tr.fail(true, "%w: reserved flag bits %#x set", ErrBadFormat, f)
		return false
	}
	ev.PC = binary.LittleEndian.Uint32(r[0:4])
	ev.Data = binary.LittleEndian.Uint32(r[4:8])
	ev.Kind = Kind(r[8])
	ev.Size = r[9]
	ev.Stall = r[10]
	ev.Syscall = r[11]&flagSyscall != 0
	tr.index++
	if tr.count != ^uint64(0) {
		tr.count--
	}
	return true
}

// WriteAll writes every event of s to w in trace-file format and returns
// the number of events written.
func WriteAll(w io.Writer, s Stream) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	var ev Event
	for s.Next(&ev) {
		if err := tw.Write(ev); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Close()
}

// ReadAll decodes an entire trace file into a packed recording. A
// corrupt or truncated tape fails here, before any run replays it.
func ReadAll(r io.Reader) (*Recorded, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rec := Pack(tr)
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}
