package pipeline

import "slices"

// arena.go: reuse of a machine's allocations across simulations. An
// experiment sweep builds one Machine per (benchmark, config, replicate)
// cell, and without reuse every cell allocates its memory pages,
// register file, window, scheduler arrays, tables and pools anew. A
// worker that runs cells back to back instead moves each finished
// machine into its Arena, and the next NewWithArena builds the new
// machine from the finished one's buffers, each reset to what a fresh
// build holds; NewWithArena lists what it reuses. Steady-state per-cell
// allocation then approaches the small state (histograms, the machine
// itself) that escapes with the result.
//
// An Arena is NOT safe for concurrent use: it belongs to one worker
// (harness.RunConfigs keeps one per scheduler shard). NewWithArena takes
// the machine out of the arena and Machine.Recycle puts one back, so a
// cell that panics or fails mid-run simply never returns its machine —
// the arena stays valid and the next cell allocates fresh.

// Arena holds at most one finished machine, whose buffers the next
// NewWithArena reuses. The zero value is an empty, usable arena.
type Arena struct {
	// m is the finished machine, or the zero Machine when the arena is
	// empty: its nil buffers make every reuse allocate.
	m Machine
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Recycle moves m into a for the next NewWithArena call, replacing any
// machine a held. The machine must be finished (halted, or abandoned
// after an error you do not intend to inspect further) and must not be
// used again: it is left halted and holding nothing, statistics
// included, so that accidental reuse fails loudly. Recycling a machine
// that returned an error is safe for the arena — everything reused is
// fully reset — but callers typically skip it to keep the error state
// inspectable.
func (m *Machine) Recycle(a *Arena) {
	if a == nil {
		return
	}
	a.m, *m = *m, Machine{halted: true}
}

// resize returns an n-length slice of zero values, reusing s's backing
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}
