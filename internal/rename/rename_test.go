package rename

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

func TestIdentityMap(t *testing.T) {
	mp := NewIdentityMap()
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if mp.Get(r) != PhysReg(r) {
			t.Fatalf("identity map: r%d -> p%d", r, mp.Get(r))
		}
	}
}

func TestMapSetReturnsOld(t *testing.T) {
	mp := NewIdentityMap()
	old := mp.Set(5, 100)
	if old != 5 {
		t.Errorf("old mapping = %d, want 5", old)
	}
	if mp.Get(5) != 100 {
		t.Errorf("new mapping = %d, want 100", mp.Get(5))
	}
}

func TestMapCopyIsIndependent(t *testing.T) {
	mp := NewIdentityMap()
	mp.Set(3, 50)
	var c Map
	c.CopyFrom(mp)
	c.Set(3, 60)
	mp.Set(4, 70)
	if mp.Get(3) != 50 {
		t.Error("copy write leaked into original")
	}
	if c.Get(3) != 60 || c.Get(4) != 4 {
		t.Error("original write leaked into copy")
	}
}

func TestMapCopyFrom(t *testing.T) {
	a := NewIdentityMap()
	b := NewIdentityMap()
	a.Set(1, 99)
	b.CopyFrom(a)
	if b.Get(1) != 99 {
		t.Error("CopyFrom did not copy")
	}
	a.Set(1, 88)
	if b.Get(1) != 99 {
		t.Error("CopyFrom aliased storage")
	}
}

func TestFreeListAllocFree(t *testing.T) {
	fl := NewFreeList(40, isa.NumRegs)
	if fl.Available() != 8 {
		t.Fatalf("available = %d, want 8", fl.Available())
	}
	if fl.Total() != 40 || fl.InUse() != 32 {
		t.Fatalf("total/inuse = %d/%d", fl.Total(), fl.InUse())
	}
	seen := map[PhysReg]bool{}
	for i := 0; i < 8; i++ {
		p, ok := fl.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if int(p) < isa.NumRegs || int(p) >= 40 || seen[p] {
			t.Fatalf("alloc returned bad or duplicate register %d", p)
		}
		seen[p] = true
	}
	if _, ok := fl.Alloc(); ok {
		t.Error("alloc must fail when exhausted")
	}
	for p := range seen {
		fl.Free(p)
	}
	if fl.Available() != 8 {
		t.Errorf("after frees, available = %d", fl.Available())
	}
}

func TestFreeListDoubleFreePanics(t *testing.T) {
	fl := NewFreeList(34, isa.NumRegs)
	p, _ := fl.Alloc()
	fl.Free(p)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double free")
		}
	}()
	fl.Free(p)
}

func TestFreeListTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewFreeList(isa.NumRegs, isa.NumRegs)
}

func TestCheckpointsTakeRestoreRelease(t *testing.T) {
	cp := NewCheckpoints(4)
	if cp.Capacity() != 4 || cp.Available() != 4 {
		t.Fatal("fresh pool sizing")
	}
	mp := NewIdentityMap()
	mp.Set(2, 77)
	id, ok := cp.Take(mp, 0xABC)
	if !ok {
		t.Fatal("take failed")
	}
	// Mutate the live map, then restore.
	mp.Set(2, 88)
	mp.Set(3, 99)
	ghr := cp.Restore(id, mp)
	if ghr != 0xABC {
		t.Errorf("restored ghr = %x", ghr)
	}
	if mp.Get(2) != 77 || mp.Get(3) != 3 {
		t.Error("restore did not recover the checkpointed map")
	}
	cp.Release(id)
	if cp.Available() != 4 {
		t.Error("release did not return slot")
	}
}

func TestCheckpointsSnapshotIsDeep(t *testing.T) {
	cp := NewCheckpoints(2)
	mp := NewIdentityMap()
	id, _ := cp.Take(mp, 1)
	mp.Set(0, 40) // mutate after checkpoint
	fresh := NewIdentityMap()
	cp.Restore(id, fresh)
	if fresh.Get(0) != 0 {
		t.Error("checkpoint must snapshot, not alias")
	}
}

func TestCheckpointsExhaustion(t *testing.T) {
	cp := NewCheckpoints(2)
	mp := NewIdentityMap()
	a, _ := cp.Take(mp, 0)
	if _, ok := cp.Take(mp, 0); !ok {
		t.Fatal("second take should succeed")
	}
	if _, ok := cp.Take(mp, 0); ok {
		t.Error("third take must fail: pool limits pending branches")
	}
	cp.Release(a)
	if _, ok := cp.Take(mp, 0); !ok {
		t.Error("take after release should succeed")
	}
}

func TestCheckpointsMisusePanics(t *testing.T) {
	cp := NewCheckpoints(1)
	mp := NewIdentityMap()
	id, _ := cp.Take(mp, 0)
	cp.Release(id)
	t.Run("double release", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		cp.Release(id)
	})
	t.Run("restore freed", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		cp.Restore(id, mp)
	})
	t.Run("zero capacity", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		NewCheckpoints(0)
	})
}

// The divergent-branch pattern from the paper: copy the map into both
// successor paths' maps, run the two paths independently, kill one,
// continue the other.
func TestDivergentMapUsage(t *testing.T) {
	parent := NewIdentityMap()
	parent.Set(1, 40)
	var taken, notTaken Map
	taken.CopyFrom(parent)
	notTaken.CopyFrom(parent)
	taken.Set(2, 41)
	notTaken.Set(2, 42)
	if taken.Get(2) == notTaken.Get(2) {
		t.Fatal("sibling paths must rename independently")
	}
	if taken.Get(1) != 40 || notTaken.Get(1) != 40 {
		t.Error("both siblings inherit pre-divergence mappings")
	}
}

// Property: any interleaving of allocs and frees conserves registers —
// available + inUse == total, no register is handed out twice while live.
func TestFreeListConservationProperty(t *testing.T) {
	fl := NewFreeList(64, isa.NumRegs)
	live := map[PhysReg]bool{}
	rng := rand.New(rand.NewSource(12))
	for step := 0; step < 10_000; step++ {
		if rng.Intn(2) == 0 {
			if p, ok := fl.Alloc(); ok {
				if live[p] {
					t.Fatalf("step %d: register %d allocated twice", step, p)
				}
				live[p] = true
			}
		} else if len(live) > 0 {
			// free a random live register
			var victim PhysReg
			n := rng.Intn(len(live))
			for p := range live {
				if n == 0 {
					victim = p
					break
				}
				n--
			}
			delete(live, victim)
			fl.Free(victim)
		}
		if fl.Available()+fl.InUse() != fl.Total() {
			t.Fatalf("step %d: conservation violated: %d + %d != %d",
				step, fl.Available(), fl.InUse(), fl.Total())
		}
		if fl.InUse() != len(live)+isa.NumRegs {
			t.Fatalf("step %d: in-use mismatch: %d vs %d live + %d reserved",
				step, fl.InUse(), len(live), isa.NumRegs)
		}
	}
}

// Property: checkpoints restore exactly the mapped state at Take time, for
// random mutation sequences.
func TestCheckpointSnapshotProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cp := NewCheckpoints(8)
	mp := NewIdentityMap()
	for trial := 0; trial < 500; trial++ {
		// Random mutations before the snapshot.
		for i := 0; i < rng.Intn(10); i++ {
			mp.Set(isa.Reg(rng.Intn(isa.NumRegs)), PhysReg(rng.Intn(512)))
		}
		var want [isa.NumRegs]PhysReg
		for r := 0; r < isa.NumRegs; r++ {
			want[r] = mp.Get(isa.Reg(r))
		}
		ghr := rng.Uint64()
		id, ok := cp.Take(mp, ghr)
		if !ok {
			t.Fatal("take failed")
		}
		// Random mutations after the snapshot.
		for i := 0; i < rng.Intn(20); i++ {
			mp.Set(isa.Reg(rng.Intn(isa.NumRegs)), PhysReg(rng.Intn(512)))
		}
		if got := cp.Restore(id, mp); got != ghr {
			t.Fatalf("trial %d: ghr %x != %x", trial, got, ghr)
		}
		for r := 0; r < isa.NumRegs; r++ {
			if mp.Get(isa.Reg(r)) != want[r] {
				t.Fatalf("trial %d: r%d restored to %d, want %d", trial, r, mp.Get(isa.Reg(r)), want[r])
			}
		}
		cp.Release(id)
	}
}

// TestResetMatchesNew: a free list and a checkpoint pool that were used
// and then reset, to a smaller or a larger size, are exactly what the
// constructors build, so an arena can hand them to the next machine.
func TestResetMatchesNew(t *testing.T) {
	fl := NewFreeList(96, isa.NumRegs)
	c := NewCheckpoints(16)
	var mp Map
	for i := 0; i < 40; i++ {
		p, _ := fl.Alloc()
		if i%3 == 0 {
			fl.Free(p)
		}
		if id, ok := c.Take(&mp, uint64(i)); ok && i%2 == 0 {
			c.Release(id)
		}
	}
	for _, size := range []int{64, 200, 96} {
		fl.Reset(size, isa.NumRegs)
		if want := NewFreeList(size, isa.NumRegs); !reflect.DeepEqual(fl, want) {
			t.Errorf("free list reset to %d registers differs from a new one", size)
		}
		c.Reset(size / 4)
		if want := NewCheckpoints(size / 4); !reflect.DeepEqual(c, want) {
			t.Errorf("checkpoints reset to %d slots differ from new ones", size/4)
		}
		fl.Alloc()
		c.Take(&mp, 7)
	}
}
