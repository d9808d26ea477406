package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/harness"
)

// store.go is the fleet's content-addressed result store: one JSON file
// per completed cell, named by the SHA-256 of the cell's content address
// (harness.CellKey). Simulations are deterministic, so the store doubles
// as a cross-restart, cross-node memoization tier AND as a correctness
// audit: two nodes writing different bytes under the same key can only
// mean nondeterminism (or corruption), which Put surfaces as a conflict
// instead of silently overwriting. First write wins, except over a file
// that does not decode to a record for its key (torn or corrupt): Get
// reads that as a miss and Put replaces it. Writes are temp+rename so
// readers never observe a torn file.

// storeRecord is the on-disk document. Key is stored inside the file so
// an auditor (scripts/soak_smoke.sh) can recompute the address and verify
// file name ↔ content agreement without a reverse index.
type storeRecord struct {
	Key   string            `json:"key"`
	Value harness.MemoValue `json:"value"`
}

// resultStore is safe for concurrent use by harness worker goroutines.
type resultStore struct {
	dir string
}

func openStore(dir string) (*resultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	return &resultStore{dir: dir}, nil
}

func (st *resultStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(st.dir, hex.EncodeToString(sum[:])+".json")
}

// read returns the file bytes and value of key's record. ok is false when
// the file is missing, does not decode, or holds another key's record.
func (st *resultStore) read(key string) (data []byte, v harness.MemoValue, ok bool) {
	data, err := os.ReadFile(st.path(key))
	if err != nil {
		return nil, v, false
	}
	var rec storeRecord
	if json.Unmarshal(data, &rec) != nil || rec.Key != key {
		return nil, v, false
	}
	return data, rec.Value, true
}

// Get returns the stored value for key, if present and intact. A corrupt
// or mismatched file reads as a miss — the cell is simply re-executed.
func (st *resultStore) Get(key string) (harness.MemoValue, bool) {
	_, v, ok := st.read(key)
	return v, ok
}

// Put stores the value under key. When an intact record for the key
// already exists it is kept (first write wins), and conflict reports
// whether its bytes disagree with v's: a determinism violation for the
// audit. A file Get would miss on is replaced. Returned errors are I/O
// problems; callers treat the store as a cache and may continue without
// it.
func (st *resultStore) Put(key string, v harness.MemoValue) (conflict bool, err error) {
	blob, err := json.Marshal(storeRecord{Key: key, Value: v})
	if err != nil {
		return false, err
	}
	if old, _, ok := st.read(key); ok {
		return !bytes.Equal(bytes.TrimSpace(old), blob), nil
	}
	tmp, err := os.CreateTemp(st.dir, ".cell-*")
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	// A concurrent writer may have landed first; content under one key is
	// identical by construction (same deterministic simulation), so the
	// rename race is benign — but check anyway to feed the audit.
	if old, _, ok := st.read(key); ok && !bytes.Equal(bytes.TrimSpace(old), blob) {
		return true, nil
	}
	return false, os.Rename(tmp.Name(), st.path(key))
}

// Len counts stored results (scrape-time only; walks the directory).
func (st *resultStore) Len() int {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".") {
			n++
		}
	}
	return n
}

// tieredMemo layers a node's persistent result store under its in-memory
// LRU (when caching is on): Get falls back to the store (backfilling the
// LRU), Put writes through. It makes every node's cache shared fleet-wide
// and restart-durable, and it counts every store hit, put, conflict and
// write error, on every role.
type tieredMemo struct{ s *Server }

func (m tieredMemo) Get(key string) (harness.MemoValue, bool) {
	s := m.s
	if s.memo != nil {
		if v, ok := s.memo.Get(key); ok {
			return v, true
		}
	}
	v, ok := s.store.Get(key)
	if ok {
		s.svc.StoreHits.Add(1)
		if s.memo != nil {
			s.memo.Put(key, v)
		}
	}
	return v, ok
}

func (m tieredMemo) Put(key string, v harness.MemoValue) {
	s := m.s
	if s.memo != nil {
		s.memo.Put(key, v)
	}
	switch conflict, err := s.store.Put(key, v); {
	case err != nil:
		s.svc.StoreErrors.Add(1)
		s.cfg.Log.Printf("polyserve: store put %s: %v", key, err)
	case conflict:
		s.svc.StoreConflicts.Add(1)
		s.cfg.Log.Printf("polyserve: DETERMINISM VIOLATION: store conflict on %s at node %s", key, s.cfg.NodeID)
	default:
		s.svc.StorePuts.Add(1)
	}
}
