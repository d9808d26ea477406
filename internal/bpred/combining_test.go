package bpred

import (
	"math/rand"
	"testing"
)

func TestLocalLearnsPerBranchPattern(t *testing.T) {
	l := NewLocal(10, 10)
	// Branch A alternates T/N; branch B is always taken. A local predictor
	// learns both without interference.
	missA, missB := 0, 0
	for i := 0; i < 2000; i++ {
		takenA := i%2 == 0
		if l.Predict(100, 0) != takenA && i > 100 {
			missA++
		}
		l.Update(100, 0, takenA)
		if l.Predict(200, 0) != true && i > 100 {
			missB++
		}
		l.Update(200, 0, true)
	}
	if missA > 0 {
		t.Errorf("local predictor mispredicted alternating branch %d times", missA)
	}
	if missB > 0 {
		t.Errorf("local predictor mispredicted constant branch %d times", missB)
	}
}

func TestLocalIgnoresGlobalHistory(t *testing.T) {
	l := NewLocal(8, 8)
	for i := 0; i < 100; i++ {
		l.Update(5, uint64(i*37), true)
	}
	if !l.Predict(5, 0xFFFF) || !l.Predict(5, 0) {
		t.Error("local prediction must not depend on the global history argument")
	}
}

func TestLocalStateAndReset(t *testing.T) {
	l := NewLocal(10, 12)
	if l.StateBytes() != (1<<12)/4+(1<<10)*12/8 {
		t.Errorf("state bytes = %d", l.StateBytes())
	}
	for i := 0; i < 4; i++ {
		l.Update(9, 0, true)
	}
	l.Reset()
	if l.Predict(9, 0) {
		t.Error("reset should clear local predictor")
	}
}

func TestLocalBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLocal(0, 8)
}

func TestCombiningPicksBetterComponent(t *testing.T) {
	// Component 1: gshare (learns global patterns). Component 2: bimodal.
	// A branch whose outcome mirrors the global history parity is
	// learnable by gshare and not by bimodal; the chooser must migrate to
	// gshare for it.
	g := NewGshare(12)
	bi := NewBimodal(10)
	c := NewCombining(bi, g, 10)
	rng := rand.New(rand.NewSource(4))
	hist := uint64(0)
	miss := 0
	n := 20000
	for i := 0; i < n; i++ {
		taken := hist&1 == 1 // perfectly correlated with last outcome
		if c.Predict(77, hist) != taken && i > n/2 {
			miss++
		}
		c.Update(77, hist, taken)
		// Interleave a second, random branch to keep bimodal noisy.
		rtaken := rng.Intn(2) == 0
		c.Update(501, hist, rtaken)
		hist = PushHistory(hist, taken)
	}
	rate := float64(miss) / float64(n/2)
	if rate > 0.05 {
		t.Errorf("combining predictor missed %.1f%% on a gshare-learnable branch", 100*rate)
	}
}

func TestCombiningFallsBackToBimodalForBiasedBranch(t *testing.T) {
	// With random global history, gshare dilutes a biased branch across
	// cold contexts while bimodal nails it; combining must not be worse
	// than bimodal alone by more than a small margin.
	measure := func(p Predictor, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		hist := uint64(0)
		miss, n := 0, 20000
		for i := 0; i < n; i++ {
			taken := rng.Float64() < 0.95
			if p.Predict(33, hist) != taken {
				miss++
			}
			p.Update(33, hist, taken)
			hist = PushHistory(hist, rng.Intn(2) == 0) // noisy global history
		}
		return float64(miss) / float64(n)
	}
	bimodal := measure(NewBimodal(10), 8)
	comb := measure(NewCombining(NewBimodal(10), NewGshare(12), 10), 8)
	if comb > bimodal+0.02 {
		t.Errorf("combining (%.3f) much worse than bimodal (%.3f) on biased branch", comb, bimodal)
	}
}

func TestCombiningStateAndReset(t *testing.T) {
	c := NewCombining(NewBimodal(8), NewGshare(10), 8)
	want := NewBimodal(8).StateBytes() + NewGshare(10).StateBytes() + (1<<8)/4
	if c.StateBytes() != want {
		t.Errorf("state bytes = %d, want %d", c.StateBytes(), want)
	}
	for i := 0; i < 8; i++ {
		c.Update(3, 0, true)
	}
	c.Reset()
	if c.Predict(3, 0) {
		t.Error("reset should clear all components")
	}
}

func TestCombiningBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCombining(NewBimodal(8), NewGshare(8), 0)
}

func TestBTBLastTargetPrediction(t *testing.T) {
	b := NewBTB(8)
	if _, ok := b.Predict(100); ok {
		t.Error("cold BTB must miss")
	}
	b.Update(100, 42)
	if tgt, ok := b.Predict(100); !ok || tgt != 42 {
		t.Errorf("predict = %d,%v want 42,true", tgt, ok)
	}
	b.Update(100, 77)
	if tgt, _ := b.Predict(100); tgt != 77 {
		t.Error("BTB must track the last target")
	}
	if b.Hits() != 2 || b.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", b.Hits(), b.Misses())
	}
}

func TestBTBTagDisambiguation(t *testing.T) {
	b := NewBTB(4) // 16 entries: pcs 5 and 21 collide
	b.Update(5, 50)
	if _, ok := b.Predict(21); ok {
		t.Error("aliased pc with different tag must miss")
	}
	b.Update(21, 99)
	if tgt, ok := b.Predict(21); !ok || tgt != 99 {
		t.Error("after update, aliased pc hits with its own target")
	}
	if _, ok := b.Predict(5); ok {
		t.Error("evicted pc must miss")
	}
}

func TestBTBResetAndState(t *testing.T) {
	b := NewBTB(6)
	b.Update(1, 2)
	b.Reset()
	if _, ok := b.Predict(1); ok {
		t.Error("reset must clear entries")
	}
	if b.StateBytes() != 64*9 {
		t.Errorf("state bytes = %d", b.StateBytes())
	}
}

func TestBTBBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBTB(0)
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS must not predict")
	}
	r.Push(10)
	r.Push(20)
	if a, ok := r.Pop(); !ok || a != 20 {
		t.Errorf("pop = %d,%v want 20", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 10 {
		t.Errorf("pop = %d,%v want 10", a, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("drained RAS must not predict")
	}
}

func TestRASCircularOverflow(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if a, _ := r.Pop(); a != 3 {
		t.Error("LIFO order after overflow")
	}
	if a, _ := r.Pop(); a != 2 {
		t.Error("second frame after overflow")
	}
	if _, ok := r.Pop(); ok {
		t.Error("the overwritten frame must be gone")
	}
}

func TestRASCopyFromAndRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(5)
	snap := NewRAS(8)
	snap.CopyFrom(r)
	r.Push(6)
	r.Pop()
	r.Pop()
	r.CopyFrom(snap)
	if a, ok := r.Pop(); !ok || a != 5 {
		t.Errorf("restored pop = %d,%v want 5", a, ok)
	}
	if r.Depth() != 8 || snap.StateBytes() != 32 {
		t.Error("accessors")
	}
}

func TestRASReset(t *testing.T) {
	r := NewRAS(4)
	for i := 1; i <= 6; i++ {
		r.Push(i)
	}
	r.Reset()
	if _, ok := r.Pop(); ok {
		t.Fatal("a reset stack must be empty")
	}
	r.Push(9)
	if a, ok := r.Pop(); !ok || a != 9 {
		t.Errorf("pop after reset = %d,%v want 9", a, ok)
	}
}

func TestRASDepthMismatchPanics(t *testing.T) {
	r := NewRAS(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.CopyFrom(NewRAS(8))
}

func TestRASBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRAS(0)
}
