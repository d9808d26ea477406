// Package rename implements register renaming for the PolyPath pipeline:
// logical-to-physical register map tables, the physical-register free list,
// and branch checkpoints.
//
// The PolyPath twist (paper Sec. 3.2.5) is that a divergent branch uses its
// two RegMap copies for the two successor paths instead of keeping one as a
// misprediction backup — the same number of map copies a monopath machine
// needs per branch, deployed differently.
package rename

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// PhysReg names a physical register.
type PhysReg uint16

// Map is a register mapping table from logical to physical registers.
type Map struct {
	m [isa.NumRegs]PhysReg
}

// NewIdentityMap returns a map where logical register i maps to physical
// register i (the conventional reset state: the first NumRegs physical
// registers hold the architectural values).
func NewIdentityMap() *Map {
	var mp Map
	for i := range mp.m {
		mp.m[i] = PhysReg(i)
	}
	return &mp
}

// Get returns the physical register currently holding logical register r.
func (mp *Map) Get(r isa.Reg) PhysReg { return mp.m[r] }

// Set redirects logical register r to physical register p and returns the
// previous mapping (the "old physical register" that the renamed
// instruction carries to commit/rollback).
func (mp *Map) Set(r isa.Reg, p PhysReg) (old PhysReg) {
	old = mp.m[r]
	mp.m[r] = p
	return old
}

// CopyFrom overwrites mp with the contents of src: checkpoint restore, and
// the way a divergent branch gives each successor path its own map.
func (mp *Map) CopyFrom(src *Map) { mp.m = src.m }

// FreeList manages the pool of unallocated physical registers.
type FreeList struct {
	free  []PhysReg
	total int
	inUse []bool // allocation tracking for invariant checks, indexed by PhysReg
}

// NewFreeList creates a free list for a machine with total physical
// registers, of which the first reserved (= isa.NumRegs) are pre-allocated
// to the identity map and therefore not initially free.
func NewFreeList(total, reserved int) *FreeList {
	fl := new(FreeList)
	fl.Reset(total, reserved)
	return fl
}

// Reset returns fl to the state NewFreeList(total, reserved) builds,
// reusing its storage.
func (fl *FreeList) Reset(total, reserved int) {
	if total <= reserved {
		panic(fmt.Sprintf("rename: %d physical registers cannot cover %d reserved", total, reserved))
	}
	fl.total = total
	fl.inUse = slices.Grow(fl.inUse[:0], total)[:total]
	clear(fl.inUse)
	fl.free = slices.Grow(fl.free[:0], total-reserved)
	for p := total - 1; p >= reserved; p-- {
		fl.free = append(fl.free, PhysReg(p))
	}
	for p := 0; p < reserved; p++ {
		fl.inUse[PhysReg(p)] = true
	}
}

// Alloc takes a physical register off the free list. ok is false when the
// pool is exhausted, in which case rename must stall this cycle.
func (fl *FreeList) Alloc() (p PhysReg, ok bool) {
	n := len(fl.free)
	if n == 0 {
		return 0, false
	}
	p = fl.free[n-1]
	fl.free = fl.free[:n-1]
	fl.inUse[p] = true
	return p, true
}

// Free returns a physical register to the pool. Double frees panic: they
// indicate a pipeline bookkeeping bug (e.g. freeing a register both at
// path kill and at commit).
func (fl *FreeList) Free(p PhysReg) {
	if !fl.inUse[p] {
		panic(fmt.Sprintf("rename: double free of physical register %d", p))
	}
	fl.inUse[p] = false
	fl.free = append(fl.free, p)
}

// Available returns the number of free physical registers.
func (fl *FreeList) Available() int { return len(fl.free) }

// Total returns the machine's physical register count.
func (fl *FreeList) Total() int { return fl.total }

// InUse returns the number of allocated physical registers.
func (fl *FreeList) InUse() int { return fl.total - len(fl.free) }

// IsAllocated reports whether physical register p is currently allocated.
// Out-of-range registers report false (a corrupted reference, not a panic),
// so invariant auditors can probe suspect values safely.
func (fl *FreeList) IsAllocated(p PhysReg) bool {
	return int(p) < fl.total && fl.inUse[p]
}

// AuditConsistency cross-checks the free stack against the allocation
// bitmap: every stacked register must be marked free, no register may
// appear twice, and the stack must account for every unallocated register.
// A non-nil error means the free list has been corrupted (e.g. by a
// hardware-style bit flip) and the machine's rename state cannot be
// trusted.
func (fl *FreeList) AuditConsistency() error {
	seen := make([]bool, fl.total)
	for _, p := range fl.free {
		if int(p) >= fl.total {
			return fmt.Errorf("rename: free list holds out-of-range register %d (total %d)", p, fl.total)
		}
		if fl.inUse[p] {
			return fmt.Errorf("rename: register %d is both on the free list and marked in use", p)
		}
		if seen[p] {
			return fmt.Errorf("rename: register %d appears twice on the free list", p)
		}
		seen[p] = true
	}
	freeMarked := 0
	for p := 0; p < fl.total; p++ {
		if !fl.inUse[p] {
			freeMarked++
		}
	}
	if freeMarked != len(fl.free) {
		return fmt.Errorf("rename: %d registers marked free but %d on the free list", freeMarked, len(fl.free))
	}
	return nil
}

// FlipInUse toggles the allocation bit of physical register p without
// touching the free stack, desynchronizing the two structures. It exists
// for deterministic fault injection (pipeline's InjectFault) and must never
// be called on a machine whose results matter.
func (fl *FreeList) FlipInUse(p PhysReg) {
	if int(p) < fl.total {
		fl.inUse[p] = !fl.inUse[p]
	}
}

// Checkpoints is a bounded pool of register-map checkpoints. The number of
// checkpoints limits the number of unresolved branches in flight, exactly
// as in the paper's monopath description (Sec. 3.1).
type Checkpoints struct {
	slots []checkpointSlot
	free  []int
}

type checkpointSlot struct {
	mp   Map
	ghr  uint64
	used bool
}

// NewCheckpoints creates a pool with n slots.
func NewCheckpoints(n int) *Checkpoints {
	c := new(Checkpoints)
	c.Reset(n)
	return c
}

// Reset returns c to the state NewCheckpoints(n) builds, every slot
// free, reusing its storage.
func (c *Checkpoints) Reset(n int) {
	if n < 1 {
		panic("rename: need at least one checkpoint")
	}
	c.slots = slices.Grow(c.slots[:0], n)[:n]
	clear(c.slots)
	c.free = slices.Grow(c.free[:0], n)
	for i := n - 1; i >= 0; i-- {
		c.free = append(c.free, i)
	}
}

// Take captures a checkpoint of mp and the global history ghr, returning a
// handle. ok is false when no slot is free (rename stalls on the branch).
func (c *Checkpoints) Take(mp *Map, ghr uint64) (id int, ok bool) {
	n := len(c.free)
	if n == 0 {
		return -1, false
	}
	id = c.free[n-1]
	c.free = c.free[:n-1]
	c.slots[id] = checkpointSlot{mp: *mp, ghr: ghr, used: true}
	return id, true
}

// Restore copies checkpoint id back into dst and returns the checkpointed
// global history. The checkpoint remains allocated until Release.
func (c *Checkpoints) Restore(id int, dst *Map) (ghr uint64) {
	s := &c.slots[id]
	if !s.used {
		panic(fmt.Sprintf("rename: restore of free checkpoint %d", id))
	}
	dst.m = s.mp.m
	return s.ghr
}

// Release frees checkpoint id (branch resolved correctly or committed, or
// was killed).
func (c *Checkpoints) Release(id int) {
	if !c.slots[id].used {
		panic(fmt.Sprintf("rename: double release of checkpoint %d", id))
	}
	c.slots[id].used = false
	c.free = append(c.free, id)
}

// Available returns the number of free checkpoint slots.
func (c *Checkpoints) Available() int { return len(c.free) }

// Capacity returns the total number of slots.
func (c *Checkpoints) Capacity() int { return len(c.slots) }

// Used reports whether slot id currently holds a live checkpoint.
// Out-of-range ids report false.
func (c *Checkpoints) Used(id int) bool {
	return id >= 0 && id < len(c.slots) && c.slots[id].used
}

// ForEachUsed calls fn for every live checkpoint slot with a read-only view
// of its captured map. Invariant auditors use this to verify that every
// register a checkpoint can restore is still allocated.
func (c *Checkpoints) ForEachUsed(fn func(id int, mp *Map)) {
	for i := range c.slots {
		if c.slots[i].used {
			fn(i, &c.slots[i].mp)
		}
	}
}
