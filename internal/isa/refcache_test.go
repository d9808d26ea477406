package isa

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withRunRef starts the reference cache empty with run standing in for
// the reference run, and restores both when the test ends.
func withRunRef(t *testing.T, run func(*Program, uint64) (*RefTrace, *Interp, error)) {
	refCache.Lock()
	saved, savedRun := refCache.runs, runRef
	refCache.runs, runRef = nil, run
	refCache.Unlock()
	t.Cleanup(func() {
		refCache.Lock()
		refCache.runs, runRef = saved, savedRun
		refCache.Unlock()
	})
}

// countdown halts after 2n+2 instructions, n of them branches.
func countdown(n int64) *Program {
	return &Program{Name: "countdown", MemWords: 2, Code: []Inst{
		{Op: Li, Dst: 1, Imm: n},
		{Op: Addi, Dst: 1, Src1: 1, Imm: -1},
		{Op: Bne, Src1: 1, Src2: 0, Target: 1},
		{Op: Halt},
	}}
}

// TestRefCacheReuse checks both halves of the reuse rule: a run that
// halted serves every cap at or above its length, and a run its cap cut
// short serves that cap only.
func TestRefCacheReuse(t *testing.T) {
	runs := map[*Program]int{}
	withRunRef(t, func(p *Program, maxInsts uint64) (*RefTrace, *Interp, error) {
		runs[p]++
		return traceRef(p, maxInsts)
	})
	halts := countdown(10)
	spin := &Program{Name: "spin", MemWords: 2, Code: []Inst{{Op: Jmp, Target: 0}, {Op: Halt}}}
	steps := []struct {
		p        *Program
		maxInsts uint64
		runs     int // runs of p after the request
	}{
		{halts, 1 << 20, 1},
		{halts, 1 << 10, 1}, // halted after 22: serves every cap from 22 up
		{halts, 22, 1},
		{halts, 21, 2}, // below its length: a run cut short at 21
		{halts, 21, 2},
		{halts, 20, 3},
		{spin, 100, 1},
		{spin, 100, 1}, // cut short at 100: serves 100 only
		{spin, 200, 2},
		{spin, 50, 3},
	}
	for _, s := range steps {
		tr, it, err := TraceCached(s.p, s.maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		if runs[s.p] != s.runs {
			t.Fatalf("%s at %d: %d runs, want %d", s.p.Name, s.maxInsts, runs[s.p], s.runs)
		}
		wantInsts, wantRecs := s.maxInsts, uint64(0)
		if s.p == halts {
			wantInsts, wantRecs = min(s.maxInsts, 22), min((s.maxInsts-1)/2, 10)
		}
		if it.InstCount != wantInsts || uint64(tr.Len()) != wantRecs {
			t.Fatalf("%s at %d: served a run of %d instructions and %d records, want %d and %d",
				s.p.Name, s.maxInsts, it.InstCount, tr.Len(), wantInsts, wantRecs)
		}
	}
}

// TestRefCacheHitDoesNotWaitForAnotherProgram blocks program b's reference
// run and requires a hit on program a to return meanwhile, and the
// concurrent misses on b to share one run. It uses no timers: b's run
// stays blocked until the test releases it.
func TestRefCacheHitDoesNotWaitForAnotherProgram(t *testing.T) {
	a, b := countdown(10), countdown(20)
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	bRuns := 0
	withRunRef(t, func(p *Program, maxInsts uint64) (*RefTrace, *Interp, error) {
		if p == b {
			mu.Lock()
			bRuns++
			mu.Unlock()
			once.Do(func() { close(started) })
			<-release
		}
		return traceRef(p, maxInsts)
	})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // ahead of withRunRef's, which takes the cache's lock
	warm, _, err := TraceCached(a, 1000)
	if err != nil {
		t.Fatal(err)
	}

	const misses = 8
	got := make([]*RefTrace, misses)
	var arrived atomic.Int32
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			got[i], _, _ = TraceCached(b, 1000)
		}()
	}
	<-started // one miss is running b, blocked
	for arrived.Load() < misses {
		runtime.Gosched()
	}
	// The misses take the cache's lock only to look b up. Were it held
	// across b's run, the hit below would hang; fail at once instead.
	free := false
	for range 1 << 16 {
		if free = refCache.TryLock(); free {
			refCache.Unlock()
			break
		}
		runtime.Gosched()
	}
	if !free {
		t.Fatal("the cache's lock stays held while b runs")
	}
	if hit, _, err := TraceCached(a, 1000); err != nil || hit != warm {
		t.Fatalf("hit on a while b runs: %p, %v; want the cached %p", hit, err, warm)
	}
	unblock()
	wg.Wait()
	if bRuns != 1 {
		t.Fatalf("%d concurrent misses on b ran it %d times, want once", misses, bRuns)
	}
	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("miss %d got trace %p, miss 0 got %p", i, tr, got[0])
		}
	}
}

// TestRefCachePanickedRunFails checks that a reference run that panics
// still finishes its cache entry: the panic reaches the request that ran
// it, and a request for the same run gets an error instead of waiting
// forever on it.
func TestRefCachePanickedRunFails(t *testing.T) {
	withRunRef(t, func(*Program, uint64) (*RefTrace, *Interp, error) {
		panic("interpreter bug")
	})
	p := countdown(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run's panic did not reach the request that ran it")
			}
		}()
		TraceCached(p, 100)
	}()
	if _, _, err := TraceCached(p, 100); !errors.Is(err, errRunPanicked) {
		t.Fatalf("request for a panicked run: %v, want %v", err, errRunPanicked)
	}
}
