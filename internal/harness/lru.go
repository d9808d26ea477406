package harness

import (
	"container/list"
	"sync"
)

// LRU is a thread-safe, string-keyed, bounded least-recently-used map with
// hit/miss accounting. It is the storage behind polyserve's result
// memoization: values are whole simulation outcomes keyed by the canonical
// hash of (normalized config, workload, instruction cap), so capacity is
// counted in entries, not bytes.
//
// The zero value is not usable; construct with NewLRU.
type LRU[V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU creates an LRU holding at most capacity entries. A capacity < 1
// yields a cache that stores nothing (every Get is a miss) — a valid way
// to disable memoization without branching at call sites.
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the value for key, marking it most recently used.
func (l *LRU[V]) Get(key string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
		l.hits++
		return el.Value.(*lruEntry[V]).val, true
	}
	l.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least-recently-used entry
// when the cache is full.
func (l *LRU[V]) Put(key string, val V) {
	if l.capacity < 1 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		l.order.MoveToFront(el)
		return
	}
	for l.order.Len() >= l.capacity {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry[V]).key)
	}
	l.items[key] = l.order.PushFront(&lruEntry[V]{key: key, val: val})
}

// Len returns the number of resident entries.
func (l *LRU[V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Stats returns cumulative hit and miss counts.
func (l *LRU[V]) Stats() (hits, misses uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses
}
