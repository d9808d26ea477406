package isa

import "math/bits"

// RefTrace is the packed record of a reference run's control-flow
// decisions, in program order: record i is the i-th conditional branch or
// indirect jump the run executed. It answers what a []BranchRecord from
// Trace does except the PC, in two bits per record plus each indirect
// jump's target. That keeps a cached run small at the paper's lengths:
// a record costs 2 bits here against 12 bytes as a BranchRecord.
//
// Record i's bits sit at bit i%64 of 64-record word i/64, in a taken and
// an indirect bitmap. The targets of the indirect records are stored
// densely in record order; the k-th is found through rank, the count of
// indirect records before each word, plus a population count within the
// word. The words are kept in chunks of refChunkWords, so a trace grows
// without copying what it already holds: a run of 2^27 instructions
// allocates its trace about once.
//
// A RefTrace is immutable once built and safe for concurrent readers.
type RefTrace struct {
	n       int
	chunks  []refChunk
	targets []int32 // resolved target of each indirect record
}

// refChunk holds refChunkWords consecutive 64-record words (fewer in the
// last chunk).
type refChunk struct {
	taken    []uint64 // set: a conditional branch that was taken
	indirect []uint64 // set: an indirect jump (Jri or Ret)
	rank     []uint32 // indirect records before the word's first record
}

// refChunkShift sets a chunk to 1<<refChunkShift words: 65,536 records
// in 20 KB.
const (
	refChunkShift = 10
	refChunkWords = 1 << refChunkShift
)

// word returns the chunk holding 64-record word w and w's index in it.
func (t *RefTrace) word(w int) (*refChunk, int) {
	return &t.chunks[w>>refChunkShift], w & (refChunkWords - 1)
}

// Len returns the number of records.
func (t *RefTrace) Len() int { return t.n }

// Taken reports whether record i is a taken conditional branch. It is
// false for an indirect jump.
func (t *RefTrace) Taken(i int) bool {
	c, w := t.word(i >> 6)
	return c.taken[w]&(1<<(i&63)) != 0
}

// Indirect reports whether record i is an indirect jump.
func (t *RefTrace) Indirect(i int) bool {
	c, w := t.word(i >> 6)
	return c.indirect[w]&(1<<(i&63)) != 0
}

// Target returns the resolved target of record i, which must be an
// indirect jump.
func (t *RefTrace) Target(i int) int {
	c, w := t.word(i >> 6)
	below := c.indirect[w] & (1<<(i&63) - 1)
	return int(t.targets[int(c.rank[w])+bits.OnesCount64(below)])
}

// add appends one record. The first chunk grows as records arrive, so a
// short run keeps a short trace, and is clipped once it fills; every later
// chunk is allocated whole.
func (t *RefTrace) add(r BranchRecord) {
	i := t.n
	if i&63 == 0 {
		w := i >> 6
		if w&(refChunkWords-1) == 0 {
			var c refChunk
			if w > 0 {
				if len(t.chunks) == 1 {
					t.chunks[0].clip()
				}
				c = refChunk{
					taken:    make([]uint64, 0, refChunkWords),
					indirect: make([]uint64, 0, refChunkWords),
					rank:     make([]uint32, 0, refChunkWords),
				}
			}
			t.chunks = append(t.chunks, c)
		}
		c := &t.chunks[len(t.chunks)-1]
		c.taken = append(c.taken, 0)
		c.indirect = append(c.indirect, 0)
		c.rank = append(c.rank, uint32(len(t.targets)))
	}
	c, w := t.word(i >> 6)
	bit := uint64(1) << (i & 63)
	switch {
	case r.Indirect:
		c.indirect[w] |= bit
		t.targets = append(t.targets, r.Target)
	case r.Taken:
		c.taken[w] |= bit
	}
	t.n++
}

// clip reallocates the last chunk and the targets at their lengths, so a
// finished trace keeps no spare capacity.
func (t *RefTrace) clip() {
	if len(t.chunks) > 0 {
		t.chunks[len(t.chunks)-1].clip()
	}
	t.chunks = exact(t.chunks)
	t.targets = exact(t.targets)
}

func (c *refChunk) clip() {
	c.taken, c.indirect, c.rank = exact(c.taken), exact(c.indirect), exact(c.rank)
}

func exact[S ~[]E, E any](s S) S {
	c := make(S, len(s))
	copy(c, s)
	return c
}

// traceRef is Trace packed into a RefTrace: it functionally executes p
// (up to maxInsts dynamic instructions) and returns the record of every
// control-flow decision along with the final interpreter state.
func traceRef(p *Program, maxInsts uint64) (*RefTrace, *Interp, error) {
	t := &RefTrace{}
	it, err := TraceStream(p, maxInsts, func(r BranchRecord) error {
		t.add(r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t.clip()
	return t, it, nil
}
