// Package btrace defines the portable PolyPath branch-trace format (PBT1)
// and the tooling that grows the workload suite from real-world traces: a
// streaming CRC-protected reader/writer, a predictability characterizer
// (per-PC bias, history-depth response, misprediction clustering — the
// taxonomy of "Workload Characterization for Branch Predictability"), and
// an importer that synthesizes a calibrated synthetic program whose gshare
// misprediction profile matches the trace.
//
// # Format specification (PBT1)
//
// A trace file is a 6-byte magic followed by a sequence of CRC-protected
// frames. Byte order is little-endian throughout.
//
//	magic:  "PBTR" 0x31 0x0a            ("PBTR1\n", 6 bytes)
//	frame:  uint32 payloadLen | uint32 crc32(payload) | payload
//
// The first frame is the header frame; every following frame is a record
// block. End of file at a frame boundary is a clean end; anything else
// (torn length word, short payload, CRC mismatch) is reported as a typed
// *CorruptError. payloadLen is bounded by MaxFramePayload, so a corrupt
// length word cannot drive unbounded allocation.
//
// Header frame payload:
//
//	uvarint version (must be 1)
//	uvarint count hint (0 = unknown; informational only)
//	uvarint len(source) | source bytes (UTF-8 label, informational)
//
// Record block payload — a sequence of records, delta-encoded:
//
//	flags byte: bit0 = taken, bit1 = indirect
//	zigzag-varint PC delta from the previous record's PC
//	    (the first record of each block encodes its absolute PC as a
//	    delta from 0, making every block independently decodable)
//	if indirect: zigzag-varint (target - pc)
//
// A record is one dynamic control-flow decision, CBP-style: the PC of a
// conditional branch and its direction, or (indirect) the resolved target
// of an indirect jump. The format is gzip-transparent: NewReader detects
// the gzip magic and decompresses on the fly, and the Writer compresses
// when the file name or an option asks for it. Readers are streaming —
// the trace is never loaded into memory.
//
// The identity of a trace is its content digest: sha256 over the decoded
// record stream in a canonical serialization (independent of block
// boundaries and compression). Workloads synthesized from a trace carry
// the digest in their name, which keeps the harness cell-key /
// result-store story content-addressed end to end.
package btrace

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Record is one dynamic control-flow decision.
type Record struct {
	PC    uint64
	Taken bool
	// Indirect marks an indirect-jump record: Taken is meaningless and
	// Target holds the resolved destination.
	Indirect bool
	Target   uint64
}

// Format constants.
const (
	// Version is the current PBT format version.
	Version = 1
	// MaxFramePayload bounds a frame payload; a corrupt length word fails
	// fast instead of driving a giant allocation.
	MaxFramePayload = 1 << 20
	// blockRecords is the writer's records-per-block flush threshold.
	blockRecords = 4096
)

var magic = []byte{'P', 'B', 'T', 'R', '1', '\n'}

// Typed corruption causes, matchable with errors.Is.
var (
	// ErrTruncated marks a file cut off mid-frame (torn tail).
	ErrTruncated = errors.New("btrace: truncated frame")
	// ErrChecksum marks a frame whose payload fails its CRC.
	ErrChecksum = errors.New("btrace: frame checksum mismatch")
	// ErrBadMagic marks a stream that is not a PBT trace at all.
	ErrBadMagic = errors.New("btrace: bad magic")
	// ErrBadRecord marks a CRC-valid payload with undecodable records.
	ErrBadRecord = errors.New("btrace: malformed record")
)

// CorruptError is the typed decode failure: what went wrong, where, and
// how much was safely recovered before the damage.
type CorruptError struct {
	// Cause is one of ErrTruncated, ErrChecksum, ErrBadMagic, ErrBadRecord.
	Cause error
	// Frame is the 0-based index of the bad frame (header frame = 0).
	Frame int
	// Records is the count of records decoded from intact frames before
	// the corruption.
	Records uint64
	Detail  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("%v (frame %d, after %d intact records): %s", e.Cause, e.Frame, e.Records, e.Detail)
}

func (e *CorruptError) Unwrap() error { return e.Cause }

// Header is the trace file header.
type Header struct {
	Version int
	// Count is the writer's record-count hint (0 = unknown). Informational:
	// readers must tolerate a trailing torn frame regardless.
	Count uint64
	// Source labels the trace's origin (program name, collection tool).
	Source string
}

// ---- digest ----

// digester folds records into the canonical content digest.
type digester struct {
	h   hash.Hash
	buf [2*binary.MaxVarintLen64 + 1]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(r Record) {
	n := binary.PutUvarint(d.buf[:], r.PC)
	d.buf[n] = recFlags(r)
	n++
	if r.Indirect {
		n += binary.PutUvarint(d.buf[n:], r.Target)
	}
	d.h.Write(d.buf[:n])
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func recFlags(r Record) byte {
	var f byte
	if r.Taken {
		f |= 1
	}
	if r.Indirect {
		f |= 2
	}
	return f
}

// ---- writer ----

// Writer streams records into a PBT1 trace. It buffers one block at a
// time; Close flushes the final partial block. Writer does not close the
// underlying io.Writer.
type Writer struct {
	w       *bufio.Writer
	gz      *gzip.Writer
	payload []byte
	inBlock int
	lastPC  uint64
	count   uint64
	dig     *digester
	err     error
	header  Header
	started bool
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithGzip compresses the stream with gzip (readers detect it
// transparently).
func WithGzip() WriterOption {
	return func(w *Writer) {
		w.gz = gzip.NewWriter(nil) // bound to the sink in NewWriter
	}
}

// WithSource sets the header's source label.
func WithSource(source string) WriterOption {
	return func(w *Writer) { w.header.Source = source }
}

// NewWriter creates a PBT1 writer over sink. The magic and header frame
// are emitted lazily on the first write (or on Close for an empty trace).
func NewWriter(sink io.Writer, opts ...WriterOption) *Writer {
	w := &Writer{header: Header{Version: Version}, dig: newDigester()}
	for _, o := range opts {
		o(w)
	}
	if w.gz != nil {
		w.gz.Reset(sink)
		w.w = bufio.NewWriter(w.gz)
	} else {
		w.w = bufio.NewWriter(sink)
	}
	return w
}

func (w *Writer) start() error {
	if w.started {
		return nil
	}
	w.started = true
	if _, err := w.w.Write(magic); err != nil {
		return err
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(w.header.Version))
	hdr = binary.AppendUvarint(hdr, w.header.Count)
	hdr = binary.AppendUvarint(hdr, uint64(len(w.header.Source)))
	hdr = append(hdr, w.header.Source...)
	return w.writeFrame(hdr)
}

func (w *Writer) writeFrame(payload []byte) error {
	var word [8]byte
	binary.LittleEndian.PutUint32(word[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(word[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(word[:]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	if w.err = w.start(); w.err != nil {
		return w.err
	}
	if w.inBlock == 0 {
		w.lastPC = 0 // every block restarts delta encoding from 0
	}
	w.payload = append(w.payload, recFlags(r))
	w.payload = binary.AppendVarint(w.payload, int64(r.PC)-int64(w.lastPC))
	if r.Indirect {
		w.payload = binary.AppendVarint(w.payload, int64(r.Target)-int64(r.PC))
	}
	w.lastPC = r.PC
	w.inBlock++
	w.count++
	w.dig.add(r)
	if w.inBlock >= blockRecords || len(w.payload) >= MaxFramePayload-16 {
		w.err = w.flushBlock()
	}
	return w.err
}

func (w *Writer) flushBlock() error {
	if w.inBlock == 0 {
		return nil
	}
	err := w.writeFrame(w.payload)
	w.payload = w.payload[:0]
	w.inBlock = 0
	return err
}

// Count returns the records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Digest returns the content digest of the records written so far
// (stable once Close has been called).
func (w *Writer) Digest() string { return w.dig.sum() }

// Close flushes buffered frames and the compression stream. It does not
// close the underlying sink.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := w.start(); err != nil { // empty trace still gets magic+header
		return err
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.gz != nil {
		return w.gz.Close()
	}
	return nil
}

// ---- reader ----

// Reader streams records out of a PBT1 trace without ever holding the
// whole trace in memory. It transparently decompresses gzip input.
type Reader struct {
	r       *bufio.Reader
	header  Header
	payload []byte
	off     int // decode offset into payload
	lastPC  uint64
	frame   int
	count   uint64
	dig     *digester
	done    bool
}

// NewReader opens a PBT1 stream, sniffing and unwrapping gzip, and reads
// the header frame. A stream that is not a PBT trace fails with
// *CorruptError(ErrBadMagic).
func NewReader(src io.Reader) (*Reader, error) {
	br := bufio.NewReader(src)
	if hdr, err := br.Peek(2); err == nil && hdr[0] == 0x1f && hdr[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("btrace: gzip: %w", err)
		}
		br = bufio.NewReader(gz)
	}
	r := &Reader{r: br, dig: newDigester()}
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, r.corrupt(ErrBadMagic, fmt.Sprintf("short magic: %v", err))
	}
	if string(got) != string(magic) {
		return nil, r.corrupt(ErrBadMagic, fmt.Sprintf("got % x, want % x (%q)", got, magic, magic))
	}
	payload, err := r.readFrame()
	if err == io.EOF {
		// Magic with no header frame: a torn write, not a clean end.
		return nil, r.corrupt(ErrTruncated, "missing header frame")
	}
	if err != nil {
		return nil, err
	}
	if err := r.decodeHeader(payload); err != nil {
		return nil, err
	}
	// The header frame is fully consumed; empty the payload view (keeping
	// its capacity for reuse) so Next starts at the first record block.
	r.payload = r.payload[:0]
	r.frame = 1
	return r, nil
}

// Header returns the trace header.
func (r *Reader) Header() Header { return r.header }

func (r *Reader) corrupt(cause error, detail string) error {
	return &CorruptError{Cause: cause, Frame: r.frame, Records: r.count, Detail: detail}
}

// readFrame reads one length+crc+payload frame. io.EOF exactly at a frame
// boundary is returned as io.EOF; any partial read is a typed corruption.
func (r *Reader) readFrame() ([]byte, error) {
	var word [8]byte
	n, err := io.ReadFull(r.r, word[:])
	if err == io.EOF && n == 0 {
		return nil, io.EOF
	}
	if err != nil {
		return nil, r.corrupt(ErrTruncated, fmt.Sprintf("frame length word: %d of 8 bytes", n))
	}
	length := binary.LittleEndian.Uint32(word[0:4])
	crc := binary.LittleEndian.Uint32(word[4:8])
	if length > MaxFramePayload {
		return nil, r.corrupt(ErrChecksum, fmt.Sprintf("frame payload length %d exceeds cap %d", length, MaxFramePayload))
	}
	if cap(r.payload) < int(length) {
		r.payload = make([]byte, length)
	}
	payload := r.payload[:length]
	if n, err := io.ReadFull(r.r, payload); err != nil {
		return nil, r.corrupt(ErrTruncated, fmt.Sprintf("frame payload: %d of %d bytes", n, length))
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, r.corrupt(ErrChecksum, fmt.Sprintf("crc %08x, want %08x over %d bytes", got, crc, length))
	}
	return payload, nil
}

func (r *Reader) decodeHeader(payload []byte) error {
	off := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	ver, ok := next()
	if !ok {
		return r.corrupt(ErrBadRecord, "header: unreadable version")
	}
	if ver != Version {
		return r.corrupt(ErrBadRecord, fmt.Sprintf("header: unsupported version %d (have %d)", ver, Version))
	}
	count, ok := next()
	if !ok {
		return r.corrupt(ErrBadRecord, "header: unreadable count hint")
	}
	slen, ok := next()
	if !ok || int(slen) > len(payload)-off {
		return r.corrupt(ErrBadRecord, "header: unreadable source label")
	}
	r.header = Header{Version: int(ver), Count: count, Source: string(payload[off : off+int(slen)])}
	return nil
}

// Next returns the next record, io.EOF at a clean end of trace, or a
// *CorruptError describing the damage. After a corruption error the
// reader stays usable only for the Digest of the intact prefix.
func (r *Reader) Next() (Record, error) {
	for {
		if r.done {
			return Record{}, io.EOF
		}
		if r.off < len(r.payload) {
			rec, n, err := decodeRecord(r.payload[r.off:], r.lastPC)
			if err != nil {
				r.done = true
				return Record{}, r.corrupt(ErrBadRecord, fmt.Sprintf("offset %d in block: %v", r.off, err))
			}
			r.off += n
			r.lastPC = rec.PC
			r.count++
			r.dig.add(rec)
			return rec, nil
		}
		payload, err := r.readFrame()
		if err != nil {
			r.done = true
			return Record{}, err
		}
		r.payload = payload
		r.off = 0
		r.lastPC = 0
		r.frame++
	}
}

// decodeRecord decodes one record from buf given the previous PC.
func decodeRecord(buf []byte, lastPC uint64) (Record, int, error) {
	if len(buf) == 0 {
		return Record{}, 0, fmt.Errorf("empty")
	}
	flags := buf[0]
	if flags&^byte(3) != 0 {
		return Record{}, 0, fmt.Errorf("unknown flag bits %#x", flags)
	}
	off := 1
	delta, n := binary.Varint(buf[off:])
	if n <= 0 {
		return Record{}, 0, fmt.Errorf("unreadable pc delta")
	}
	off += n
	rec := Record{
		PC:       uint64(int64(lastPC) + delta),
		Taken:    flags&1 != 0,
		Indirect: flags&2 != 0,
	}
	if rec.Indirect {
		tdelta, n := binary.Varint(buf[off:])
		if n <= 0 {
			return Record{}, 0, fmt.Errorf("unreadable target delta")
		}
		off += n
		rec.Target = uint64(int64(rec.PC) + tdelta)
	}
	return rec, off, nil
}

// Digest returns the content digest of the records decoded so far; after
// Next has returned io.EOF it is the digest of the whole trace and equals
// the producing Writer's Digest.
func (r *Reader) Digest() string { return r.dig.sum() }
