package btrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// testRecords builds a deterministic mixed stream: conditional branches
// over a small PC set (forward and backward deltas) plus indirect jumps.
func testRecords(n int) []Record {
	rng := rand.New(rand.NewSource(42))
	pcs := []uint64{16, 48, 112, 4096, 19}
	recs := make([]Record, n)
	for i := range recs {
		pc := pcs[rng.Intn(len(pcs))]
		if rng.Intn(8) == 0 {
			recs[i] = Record{PC: pc, Indirect: true, Target: pcs[rng.Intn(len(pcs))]}
		} else {
			recs[i] = Record{PC: pc, Taken: rng.Intn(2) == 0}
		}
	}
	return recs
}

func encode(t *testing.T, recs []Record, opts ...WriterOption) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, opts...)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), w.Digest()
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []WriterOption
	}{
		{"plain", []WriterOption{WithSource("unit")}},
		{"gzip", []WriterOption{WithSource("unit"), WithGzip()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Spans multiple blocks (blockRecords = 4096).
			want := testRecords(10_000)
			blob, wdig := encode(t, want, tc.opts...)

			r, err := NewReader(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			if h := r.Header(); h.Version != Version || h.Source != "unit" {
				t.Fatalf("header = %+v", h)
			}
			got, err := readAll(r)
			if err != nil {
				t.Fatalf("readAll: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			if rdig := r.Digest(); rdig != wdig {
				t.Fatalf("reader digest %s != writer digest %s", rdig, wdig)
			}
		})
	}
}

func TestEmptyTrace(t *testing.T) {
	blob, _ := encode(t, nil, WithSource("empty"))
	r, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty trace = %v, want io.EOF", err)
	}
}

func TestDigestIndependentOfBlocking(t *testing.T) {
	recs := testRecords(blockRecords + 100) // forces a mid-stream flush
	_, d1 := encode(t, recs)
	_, d2 := encode(t, recs, WithGzip())
	if d1 != d2 {
		t.Fatalf("digest differs across compression: %s vs %s", d1, d2)
	}
	// Same records hand-fed to the digester (no framing at all).
	d := newDigester()
	for _, r := range recs {
		d.add(r)
	}
	if d.sum() != d1 {
		t.Fatalf("canonical digest %s != writer digest %s", d.sum(), d1)
	}
}

func TestBadMagic(t *testing.T) {
	for _, blob := range [][]byte{
		nil,
		[]byte("PBT"),
		[]byte("NOTATRACEFILE"),
		[]byte("PBTR2\n"),
	} {
		_, err := NewReader(bytes.NewReader(blob))
		if !errors.Is(err, ErrBadMagic) {
			t.Errorf("NewReader(%q) = %v, want ErrBadMagic", blob, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("NewReader(%q) error is not *CorruptError: %v", blob, err)
		}
	}
}

// drain decodes everything it can, returning the count of records decoded
// before the first error (io.EOF = clean end).
func drain(blob []byte) (records uint64, err error) {
	r, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	for {
		if _, err := r.Next(); err != nil {
			return records, err
		}
		records++
	}
}

// readAll decodes every record of r, stopping at the first error.
func readAll(r *Reader) ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// TestTruncationAtEveryBoundary cuts a small uncompressed trace at every
// byte offset: each prefix must decode to some intact record prefix and
// then report either a clean EOF (exact frame boundary) or a typed
// *CorruptError — never a panic, never silently wrong data.
func TestTruncationAtEveryBoundary(t *testing.T) {
	recs := testRecords(300)
	blob, _ := encode(t, recs, WithSource("x"))
	cleanEnds := 0
	for cut := 0; cut < len(blob); cut++ {
		n, err := drain(blob[:cut])
		if err == io.EOF {
			cleanEnds++
			continue
		}
		if err == nil {
			t.Fatalf("cut %d: no error from a truncated stream", cut)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("cut %d: error %v is not a *CorruptError", cut, err)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("cut %d: unexpected cause %v", cut, err)
		}
		if n > uint64(len(recs)) {
			t.Fatalf("cut %d: decoded %d records from a %d-record trace", cut, n, len(recs))
		}
	}
	// The only clean-EOF cut of a (magic, header, one block) stream is at
	// the header/block boundary; everything else must be flagged.
	if cleanEnds != 1 {
		t.Fatalf("%d clean EOF cut points, want exactly 1 (the header/block frame boundary)", cleanEnds)
	}
}

// TestBitFlipAtEveryByte flips one bit in every byte of the stream in
// turn. Every flip must surface as a typed error or — only when it lands
// in the informational header fields (count hint, source label) — leave
// the decoded records identical. A flip must never alter decoded records
// silently.
func TestBitFlipAtEveryByte(t *testing.T) {
	recs := testRecords(300)
	blob, wantDigest := encode(t, recs, WithSource("x"))
	for i := 0; i < len(blob); i++ {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x10
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("byte %d: NewReader error %v is not *CorruptError", i, err)
			}
			continue
		}
		all, err := readAll(r)
		if err == nil {
			// CRC32 catches every single-bit payload flip; a surviving flip
			// must have landed in a part that does not affect record content
			// (there is none in PBT1 outside the header fields, which are
			// covered by their frame CRC — so the only undetected flips are
			// those the CRC word itself... which would mismatch). Ergo: the
			// decode must be byte-identical to the original.
			if len(all) != len(recs) || r.Digest() != wantDigest {
				t.Fatalf("byte %d: flip silently altered the decoded stream (%d records, digest %s)",
					i, len(all), r.Digest())
			}
			continue
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("byte %d: error %v is not a *CorruptError", i, err)
		}
	}
}

// TestCorruptErrorDetail spot-checks the three mid-stream corruption
// classes and their reported positions.
func TestCorruptErrorDetail(t *testing.T) {
	recs := testRecords(100)
	blob, _ := encode(t, recs, WithSource("x"))

	// Locate the data frame: magic(6) + header frame.
	hdrLen := int(uint32(blob[6]) | uint32(blob[7])<<8 | uint32(blob[8])<<16 | uint32(blob[9])<<24)
	data := 6 + 8 + hdrLen // offset of the data frame's length word

	t.Run("torn length word", func(t *testing.T) {
		_, err := drain(blob[:data+3])
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("short payload", func(t *testing.T) {
		_, err := drain(blob[:data+8+4])
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("payload bit rot", func(t *testing.T) {
		mut := bytes.Clone(blob)
		mut[data+8+2] ^= 0x01
		n, err := drain(mut)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
		if n != 0 {
			t.Fatalf("decoded %d records from a frame that fails its CRC", n)
		}
	})
	t.Run("oversized length word", func(t *testing.T) {
		mut := bytes.Clone(blob)
		mut[data+3] = 0xff // length word now far beyond MaxFramePayload
		_, err := drain(mut)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CorruptError", err)
		}
	})
	t.Run("bad record flags", func(t *testing.T) {
		// A CRC-valid frame with garbage records: rebuild the frame by hand.
		payload := []byte{0xff, 0x00} // flags 0xff is invalid
		var buf bytes.Buffer
		w := NewWriter(&buf, WithSource("x"))
		if err := w.Close(); err != nil { // magic + header only
			t.Fatal(err)
		}
		frame := buf.Bytes()
		frame = append(frame, frameBytes(payload)...)
		n, err := drain(frame)
		if !errors.Is(err, ErrBadRecord) {
			t.Fatalf("err = %v, want ErrBadRecord", err)
		}
		if n != 0 {
			t.Fatalf("decoded %d records", n)
		}
	})
}

// frameBytes wraps payload in the length+crc framing (test helper for
// hand-built corrupt frames).
func frameBytes(payload []byte) []byte {
	var word [8]byte
	binary.LittleEndian.PutUint32(word[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(word[4:8], crc32.ChecksumIEEE(payload))
	return append(word[:], payload...)
}

func TestWriterCountAndDigestStable(t *testing.T) {
	recs := testRecords(50)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 50 {
		t.Fatalf("Count = %d", w.Count())
	}
	d := w.Digest()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Digest() != d {
		t.Fatalf("digest changed across Close")
	}
}
