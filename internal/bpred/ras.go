package bpred

import "fmt"

// RAS is a return-address stack: the standard predictor for function
// returns. Calls push the return address at fetch; returns pop the top as
// their predicted target. In the PolyPath machine the RAS is speculative
// per-path state (like the global history register): each execution path
// carries its own copy, and misprediction recovery restores the snapshot
// taken with the branch's checkpoint.
//
// The stack is circular: pushing beyond the depth silently overwrites the
// oldest frame, and popping an empty stack returns no prediction — both
// standard hardware behaviours.
type RAS struct {
	depth   int
	entries []int32
	top     int // index of the next free slot
	count   int // live frames (<= depth)
}

// NewRAS creates a return-address stack with the given depth.
func NewRAS(depth int) *RAS {
	if depth < 1 || depth > 1024 {
		panic(fmt.Sprintf("bpred: RAS depth %d out of range [1,1024]", depth))
	}
	return &RAS{depth: depth, entries: make([]int32, depth)}
}

// Push records a return address (on a call's fetch).
func (r *RAS) Push(addr int) {
	r.entries[r.top] = int32(addr)
	r.top = (r.top + 1) % r.depth
	if r.count < r.depth {
		r.count++
	}
}

// Pop predicts a return target and removes the frame. ok is false when
// the stack holds no live frames (prediction unavailable).
func (r *RAS) Pop() (addr int, ok bool) {
	if r.count == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + r.depth) % r.depth
	r.count--
	return int(r.entries[r.top]), true
}

// Depth returns the configured capacity.
func (r *RAS) Depth() int { return r.depth }

// Reset empties the stack.
func (r *RAS) Reset() {
	clear(r.entries)
	r.top, r.count = 0, 0
}

// CopyFrom overwrites r with src, which must have the same depth: the
// snapshot and restore of per-path speculative state.
func (r *RAS) CopyFrom(src *RAS) {
	if src.depth != r.depth {
		panic("bpred: RAS snapshot depth mismatch")
	}
	copy(r.entries, src.entries)
	r.top = src.top
	r.count = src.count
}

// StateBytes returns the hardware budget (32-bit entries).
func (r *RAS) StateBytes() int { return r.depth * 4 }
