package rename

// bitset.go: a dense readiness bitset over the physical register file.
//
// The pipeline's wakeup logic tests "is physical register p ready" for
// every pending source operand every cycle; packing the flags 64 to a
// machine word keeps the whole readiness state of a 352-register machine
// in six words (one cache line) instead of a 352-byte bool slice, and
// lets arena reuse reset it with a handful of word stores.

// ReadySet tracks per-physical-register readiness as a packed bitmap.
// The zero value is unusable; create one with NewReadySet.
type ReadySet struct {
	words []uint64
	n     int
}

// NewReadySet returns an all-clear readiness set for n physical registers.
func NewReadySet(n int) ReadySet {
	return ReadySet{words: make([]uint64, (n+63)/64), n: n}
}

// ReuseReadySet re-initializes s for n registers, reusing its backing
// words when they are large enough (the arena-recycling path). The result
// is all-clear, exactly like NewReadySet(n).
func ReuseReadySet(s ReadySet, n int) ReadySet {
	w := (n + 63) / 64
	if cap(s.words) < w {
		return NewReadySet(n)
	}
	s.words = s.words[:w]
	clear(s.words)
	s.n = n
	return s
}

// Test reports whether physical register p is ready.
func (s *ReadySet) Test(p PhysReg) bool {
	return s.words[p>>6]&(1<<uint(p&63)) != 0
}

// Bit returns 1 when physical register p is ready and 0 otherwise, so a
// caller can combine several readiness tests with & instead of branching
// on each.
func (s *ReadySet) Bit(p PhysReg) uint64 {
	return s.words[p>>6] >> (p & 63) & 1
}

// Set marks physical register p ready (the writeback publish).
func (s *ReadySet) Set(p PhysReg) {
	s.words[p>>6] |= 1 << uint(p&63)
}

// Clear marks physical register p not ready (rename allocation, or an
// injected dropped-wakeup fault).
func (s *ReadySet) Clear(p PhysReg) {
	s.words[p>>6] &^= 1 << uint(p&63)
}

// Len returns the number of registers the set covers.
func (s *ReadySet) Len() int { return s.n }
