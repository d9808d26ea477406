package harness

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	l := NewLRU[int](2)
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	l.Put("a", 1)
	l.Put("b", 2)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	l.Put("c", 3) // evicts b (a was refreshed)
	if _, ok := l.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := l.Get("a"); !ok {
		t.Error("a should be resident")
	}
	if _, ok := l.Get("c"); !ok {
		t.Error("c should be resident")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	hits, misses := l.Stats()
	if hits != 3 || misses != 2 {
		t.Errorf("stats = %d hits %d misses, want 3/2", hits, misses)
	}
}

func TestLRUPutRefreshesValue(t *testing.T) {
	l := NewLRU[string](4)
	l.Put("k", "old")
	l.Put("k", "new")
	if v, _ := l.Get("k"); v != "new" {
		t.Errorf("Get = %q, want new", v)
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d after double Put", l.Len())
	}
}

// TestLRUEvictionOrder pins the exact eviction sequence: entries leave
// strictly least-recently-used first, where both Get and Put refresh
// recency.
func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU[int](3)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("c", 3) // recency (most..least): c b a
	l.Get("a")    // a c b
	l.Put("b", 2) // b a c
	l.Put("d", 4) // evicts c
	if _, ok := l.Get("c"); ok {
		t.Fatal("c should be the first eviction")
	}
	l.Put("e", 5) // recency was d b a (the Get(c) miss moved nothing): evicts a
	if _, ok := l.Get("a"); ok {
		t.Fatal("a should be the second eviction")
	}
	for _, k := range []string{"b", "d", "e"} {
		if _, ok := l.Get(k); !ok {
			t.Fatalf("%s should survive", k)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
}

func TestLRUZeroCapacityStoresNothing(t *testing.T) {
	for _, capacity := range []int{0, -1, -100} {
		l := NewLRU[int](capacity)
		l.Put("a", 1)
		l.Put("b", 2)
		if _, ok := l.Get("a"); ok {
			t.Errorf("capacity %d cache must not store", capacity)
		}
		if l.Len() != 0 {
			t.Errorf("capacity %d: Len = %d, want 0", capacity, l.Len())
		}
		if hits, misses := l.Stats(); hits != 0 || misses != 1 {
			t.Errorf("capacity %d: stats = %d/%d, want 0 hits 1 miss", capacity, hits, misses)
		}
	}
}

func TestLRUConcurrent(t *testing.T) {
	l := NewLRU[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%100)
				l.Put(k, i)
				l.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity", l.Len())
	}
}

// TestLRUConcurrentEvictionPressure hammers a tiny cache from many
// goroutines so every Put evicts, exercising the map/list consistency
// under -race; afterwards the cache must be exactly full of live keys.
func TestLRUConcurrentEvictionPressure(t *testing.T) {
	const capacity = 4
	l := NewLRU[int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("g%d-%d", g, i)
				l.Put(k, i)
				if v, ok := l.Get(k); ok && v != i {
					t.Errorf("Get(%s) = %d, want %d", k, v, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != capacity {
		t.Errorf("Len = %d, want exactly %d after sustained pressure", l.Len(), capacity)
	}
	hits, misses := l.Stats()
	if hits+misses != 8*2000 {
		t.Errorf("stats account for %d gets, want %d", hits+misses, 8*2000)
	}
}
