package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// ---- consistent-hash registry ----

func nopDial(addr string) WorkerCaller { return nil }

// TestRingOwnershipStableUnderChurn: killing one worker moves only the
// cells it owned; every other cell keeps its owner (the property that
// keeps per-worker memoization caches hot across membership changes).
func TestRingOwnershipStableUnderChurn(t *testing.T) {
	reg := newRegistry(time.Hour, nopDial, nil)
	defer reg.close()
	for _, id := range []string{"w1", "w2", "w3"} {
		if _, err := reg.register(id, "http://"+id); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 200)
	before := make(map[string]string)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell-%d", i)
		before[keys[i]] = reg.owner(keys[i], nil).id
	}
	counts := map[string]int{}
	for _, owner := range before {
		counts[owner]++
	}
	for _, id := range []string{"w1", "w2", "w3"} {
		if counts[id] == 0 {
			t.Fatalf("worker %s owns no keys; vnode spread broken: %v", id, counts)
		}
	}

	// Evict w2 by hand (the reaper's job) and re-check ownership.
	reg.mu.Lock()
	reg.workers["w2"].live = false
	reg.rebuildLocked()
	reg.mu.Unlock()
	moved := 0
	for _, k := range keys {
		after := reg.owner(k, nil).id
		if after == "w2" {
			t.Fatalf("key %s still owned by the dead worker", k)
		}
		if before[k] != "w2" && after != before[k] {
			t.Fatalf("key %s moved %s -> %s though its owner survived", k, before[k], after)
		}
		if before[k] == "w2" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("w2 owned nothing; churn test proved nothing")
	}

	// skip-walk: asking to skip a key's owner yields a different live worker.
	k := keys[0]
	owner := reg.owner(k, nil).id
	next := reg.owner(k, map[string]bool{owner: true})
	if next == nil || next.id == owner {
		t.Fatalf("skip-walk returned %v, want a different live worker", next)
	}
	if got := reg.owner(k, map[string]bool{"w1": true, "w2": true, "w3": true}); got != nil {
		t.Fatalf("all workers skipped must yield nil, got %s", got.id)
	}
}

// TestRegistryLeaseEviction: a worker that stops heartbeating is evicted
// by the reaper (onEvict fires), and a later heartbeat revives it with
// its identity intact.
func TestRegistryLeaseEviction(t *testing.T) {
	evicted := make(chan string, 1)
	reg := newRegistry(40*time.Millisecond, nopDial, func(id string) { evicted <- id })
	defer reg.close()
	if _, err := reg.register("w1", "http://w1"); err != nil {
		t.Fatal(err)
	}
	if !reg.isLive("w1") {
		t.Fatal("freshly registered worker must be live")
	}
	select {
	case id := <-evicted:
		if id != "w1" {
			t.Fatalf("evicted %s, want w1", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reaper never evicted the silent worker")
	}
	if reg.isLive("w1") || reg.liveCount() != 0 {
		t.Fatal("evicted worker still counted live")
	}
	// The lease revives on heartbeat — no re-registration needed while the
	// coordinator still remembers the ID.
	if !reg.beat("w1") {
		t.Fatal("beat on a remembered (evicted) worker must succeed")
	}
	if !reg.isLive("w1") {
		t.Fatal("heartbeat must revive the lease")
	}
	if reg.beat("ghost") {
		t.Fatal("beat on an unknown worker must demand re-registration")
	}
}

// ---- content-addressed result store ----

func TestStoreRoundTripAndConflict(t *testing.T) {
	st, err := openStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v := harness.MemoValue{IPC: 1.25, Stats: stats.Sim{Committed: 1000, Cycles: 800}}
	if _, ok := st.Get("cell-a"); ok {
		t.Fatal("empty store must miss")
	}
	if conflict, err := st.Put("cell-a", v); err != nil || conflict {
		t.Fatalf("first put: conflict=%v err=%v", conflict, err)
	}
	got, ok := st.Get("cell-a")
	if !ok || got.IPC != v.IPC || got.Stats.Committed != v.Stats.Committed {
		t.Fatalf("round trip: ok=%v got=%+v", ok, got)
	}
	// Same key, same value: idempotent re-put, no conflict.
	if conflict, err := st.Put("cell-a", v); err != nil || conflict {
		t.Fatalf("idempotent re-put: conflict=%v err=%v", conflict, err)
	}
	// Same key, different value: the determinism violation the fleet audit
	// is built to catch.
	v2 := v
	v2.IPC = 9.99
	conflict, err := st.Put("cell-a", v2)
	if err != nil {
		t.Fatal(err)
	}
	if !conflict {
		t.Fatal("divergent re-put must report a conflict")
	}
	if got, _ := st.Get("cell-a"); got.IPC != v.IPC {
		t.Fatal("conflict must not overwrite the first-written value")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}

	// A corrupt entry is a miss, never an error.
	st2, _ := openStore(t.TempDir())
	if _, err := st2.Put("cell-b", v); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(st2.dir)
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(st2.dir, e.Name()), []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st2.Get("cell-b"); ok {
		t.Fatal("corrupt store entry must read as a miss")
	}
	// The cell then runs again, and its put repairs the entry instead of
	// reporting a determinism violation.
	if conflict, err := st2.Put("cell-b", v); err != nil || conflict {
		t.Fatalf("put over a corrupt entry: conflict=%v err=%v", conflict, err)
	}
	if got, ok := st2.Get("cell-b"); !ok || got.IPC != v.IPC {
		t.Fatalf("after repair: ok=%v got=%+v", ok, got)
	}
}

// TestStandaloneStoreHitsCounted: a standalone node without an LRU reads
// a rerun job's cells from its result store and counts every read.
func TestStandaloneStoreHitsCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), CacheCells: 0})
	for run := 0; run < 2; run++ {
		if j := submitAndWait(t, ts, fleetJobBody); j.State != JobDone {
			t.Fatalf("run %d: %s %s", run, j.State, j.Error)
		}
	}
	snap := s.Stats()
	if snap.StoreHits != 6 || snap.StorePuts != 6 || snap.CellsFromCache != 6 {
		t.Fatalf("store hits/puts = %d/%d, cells from cache %d; want 6 each (2 benchmarks x 3 configs)",
			snap.StoreHits, snap.StorePuts, snap.CellsFromCache)
	}
}

// TestWorkerMemoCountsStoreConflict: two different results put under one
// key through a worker's memo count one determinism violation.
func TestWorkerMemoCountsStoreConflict(t *testing.T) {
	s, _ := newTestServer(t, Config{Role: RoleWorker, NodeID: "w1", StoreDir: t.TempDir(), CacheCells: 64})
	memo := s.cellMemo()
	v := harness.MemoValue{IPC: 1.25, Stats: stats.Sim{Committed: 1000, Cycles: 800}}
	memo.Put("cell-a", v)
	v.IPC = 9.99
	memo.Put("cell-a", v)
	if snap := s.Stats(); snap.StorePuts != 1 || snap.StoreConflicts != 1 {
		t.Fatalf("store puts/conflicts = %d/%d, want 1/1", snap.StorePuts, snap.StoreConflicts)
	}
}

// ---- per-tenant fair queuing ----

// TestTenantFairQueuing: with one tenant hogging the queue, a second
// tenant's jobs still run in round-robin turn, and the hog is bounded by
// the per-tenant cap while the other tenant is still admitted.
func TestTenantFairQueuing(t *testing.T) {
	started := make(chan string, 32)
	release := make(chan struct{})
	sched := newTenantScheduler(1, 16, 4, func(j *Job) {
		started <- j.Tenant + "/" + j.ID
		<-release
	})
	defer func() { close(release); sched.drain() }()

	submit := func(tenant, id string) error {
		return sched.submit(&Job{ID: id, Tenant: tenant, State: JobQueued})
	}
	// First job starts immediately and occupies the single worker; the
	// rest queue behind it.
	if err := submit("hog", "job-0"); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 1; i <= 4; i++ {
		if err := submit("hog", fmt.Sprintf("job-%d", i)); err != nil {
			t.Fatalf("hog job %d: %v", i, err)
		}
	}
	// The hog's 5th queued job exceeds its per-tenant share.
	if err := submit("hog", "job-5"); err != ErrTenantQueueFull {
		t.Fatalf("over-cap hog submit: err=%v, want ErrTenantQueueFull", err)
	}
	// The polite tenant still gets in.
	if err := submit("polite", "job-p1"); err != nil {
		t.Fatalf("polite tenant must be admitted: %v", err)
	}
	if err := submit("polite", "job-p2"); err != nil {
		t.Fatal(err)
	}
	if got := sched.tenantDepth("hog"); got != 4 {
		t.Fatalf("hog depth = %d, want 4", got)
	}

	// Drain order: the worker must alternate tenants (round-robin), not
	// empty the hog first.
	var order []string
	for i := 0; i < 6; i++ {
		release <- struct{}{}
		select {
		case s := <-started:
			order = append(order, s)
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %v", order)
		}
	}
	politeFirst := -1
	for i, s := range order {
		if strings.HasPrefix(s, "polite/") {
			politeFirst = i
			break
		}
	}
	if politeFirst < 0 || politeFirst > 1 {
		t.Fatalf("polite tenant's first job ran at position %d of %v; fair queuing should interleave", politeFirst, order)
	}
}

// ---- WAL journal ----

// TestWALAcceptDoneCycle: accepts without a matching done survive a
// restart; accept+done pairs do not; the reopened file is compacted.
func TestWALAcceptDoneCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.journal")
	mk := func() *Server {
		return &Server{
			cfg:  Config{QueueCapacity: 8, JournalPath: path, Log: testLogger(t)}.withDefaults(),
			jobs: make(map[string]*Job),
		}
	}
	jobA := &Job{ID: "job-000001", State: JobQueued, Submitted: time.Unix(1700000000, 0).UTC(),
		Request: JobRequest{Configs: []ConfigEntry{{Name: "mono", Model: "monopath"}}, Benchmarks: []string{"compress"}, Insts: 10000}}
	jobB := &Job{ID: "job-000002", State: JobQueued, Submitted: jobA.Submitted, Tenant: "acme",
		Request: jobA.Request}

	s1 := mk()
	s1.sched = newScheduler(1, 8, func(j *Job) {})
	if _, err := s1.loadJournal(path); err != nil { // empty file: opens the WAL
		t.Fatal(err)
	}
	s1.walAppend("accept", jobA)
	s1.walAppend("accept", jobB)
	s1.walAppend("done", jobA)
	if err := s1.walClose(); err != nil {
		t.Fatal(err)
	}
	s1.sched.drain()

	// "Restart": only jobB is pending.
	s2 := mk()
	blocked := make(chan struct{})
	s2.sched = newScheduler(1, 8, func(j *Job) { <-blocked })
	defer func() { close(blocked); s2.sched.drain() }()
	n, err := s2.loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d jobs, want 1 (accept without done)", n)
	}
	j, ok := s2.Job("job-000002")
	if !ok {
		t.Fatal("job-000002 (accepted, never done) must resume")
	}
	if j.Tenant != "acme" {
		t.Fatalf("tenant %q lost across restart, want acme", j.Tenant)
	}
	if _, ok := s2.Job("job-000001"); ok {
		t.Fatal("job-000001 (done) must not resume")
	}
	if err := s2.walClose(); err != nil {
		t.Fatal(err)
	}

	// The load compacted the file: exactly one record remains.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(blob, []byte("\n")); lines != 1 {
		t.Fatalf("compacted WAL has %d records, want 1:\n%s", lines, blob)
	}
}

// TestJournalTornTailEveryByteBoundary cuts the journal's final record at
// every byte boundary — the full sweep of torn-write shapes a crash can
// leave — and requires that every cut resumes exactly the two intact jobs
// and drops the tail without an error.
func TestJournalTornTailEveryByteBoundary(t *testing.T) {
	rec1 := appendJournalRecord(nil, journalRecord(t, "job-000001"))
	rec2 := appendJournalRecord(nil, journalRecord(t, "job-000002"))
	rec3 := appendJournalRecord(nil, journalRecord(t, "job-000003"))

	dir := t.TempDir()
	for cut := 0; cut < len(rec3); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("journal-%03d", cut))
		blob := append(append(append([]byte(nil), rec1...), rec2...), rec3[:cut]...)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &Server{cfg: Config{QueueCapacity: 8, JournalPath: path, Log: testLogger(t)}.withDefaults(), jobs: make(map[string]*Job)}
		release := make(chan struct{})
		s.sched = newScheduler(1, 8, func(j *Job) { <-release })
		n, err := s.loadJournal(path)
		if err != nil {
			t.Fatalf("cut %d: loadJournal error: %v", cut, err)
		}
		// One boundary is special: losing only the trailing newline leaves
		// the record checksum-intact, so it rightly resumes.
		want, tornResumes := 2, false
		if cut == len(rec3)-1 {
			want, tornResumes = 3, true
		}
		if n != want {
			t.Fatalf("cut %d: resumed %d jobs, want %d", cut, n, want)
		}
		if _, ok := s.Job("job-000003"); ok != tornResumes {
			t.Fatalf("cut %d: torn record resumed=%v, want %v", cut, ok, tornResumes)
		}
		close(release)
		s.sched.drain()
		if err := s.walClose(); err != nil {
			t.Fatal(err)
		}
	}
}

// ---- fleet end to end (in-process coordinator + workers over HTTP) ----

// httpCaller is the test's stand-in for client.DialWorker: the same
// single-shot POST /v1/cells exchange, without importing internal/client
// (which imports this package).
type httpCaller struct{ base string }

func (c httpCaller) RunCell(ctx context.Context, req CellRequest) (CellResponse, error) {
	var out CellResponse
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return out, &CellCallError{Err: err}
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return out, &CellCallError{Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	node := resp.Header.Get(HeaderNode)
	if err != nil {
		return out, &CellCallError{Node: node, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return out, &CellCallError{Node: node, Crash: resp.Header.Get(HeaderCrash) != "",
			Status: resp.StatusCode, Msg: string(data)}
	}
	return out, json.Unmarshal(data, &out)
}

// deadCaller refuses every call at the transport level.
type deadCaller struct{}

func (deadCaller) RunCell(ctx context.Context, req CellRequest) (CellResponse, error) {
	return CellResponse{}, &CellCallError{Err: fmt.Errorf("connection refused (test)")}
}

// startFleet builds one coordinator plus n live workers sharing a result
// store, all in-process over httptest.
func startFleet(t *testing.T, n int, storeDir string) (*Server, *httptest.Server) {
	t.Helper()
	dial := func(addr string) WorkerCaller {
		if strings.HasPrefix(addr, "dead://") {
			return deadCaller{}
		}
		return httpCaller{base: addr}
	}
	coord, cts := newTestServer(t, Config{
		Role: RoleCoordinator, NodeID: "coord", DialWorker: dial,
		StoreDir: storeDir, LeaseTTL: time.Hour, CellTimeout: 30 * time.Second,
		CacheCells: 1024,
	})
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("w%d", i)
		w, wts := newTestServer(t, Config{
			Role: RoleWorker, NodeID: id, StoreDir: storeDir, CacheCells: 1024,
		})
		_ = w
		if _, err := coord.registry.register(id, wts.URL); err != nil {
			t.Fatal(err)
		}
	}
	return coord, cts
}

const fleetJobBody = `{"configs":[{"name":"mono","model":"monopath"},{"name":"see","model":"see"},{"name":"dual","model":"dualpath"}],"insts":3000,"benchmarks":["compress","gcc"]}`

// TestFleetMatchesStandalone: a job sharded across three workers returns
// the byte-identical rendered result of a single-node run.
func TestFleetMatchesStandalone(t *testing.T) {
	solo, sts := newTestServer(t, Config{})
	_ = solo
	want := submitAndWait(t, sts, fleetJobBody)
	if want.State != JobDone {
		t.Fatalf("standalone run failed: %+v", want)
	}
	wantRes := getResult(t, sts, want.ID)

	coord, cts := startFleet(t, 3, t.TempDir())
	got := submitAndWait(t, cts, fleetJobBody)
	if got.State != JobDone {
		t.Fatalf("fleet run failed: %+v", got)
	}
	gotRes := getResult(t, cts, got.ID)
	if gotRes.Text != wantRes.Text {
		t.Fatalf("fleet result diverged from standalone:\n--- standalone ---\n%s\n--- fleet ---\n%s", wantRes.Text, gotRes.Text)
	}
	if coord.svc.CellsDispatched.Load() == 0 {
		t.Fatal("coordinator dispatched no cells; the run was not remote")
	}
	if coord.svc.StoreConflicts.Load() != 0 {
		t.Fatal("determinism violation: store conflicts in a healthy fleet")
	}
	if coord.store.Len() == 0 {
		t.Fatal("shared store empty after a fleet run")
	}
}

// TestFleetRedispatchAroundDeadWorker: with one registered worker dead at
// the transport level, every cell it owned is redispatched to the ring
// successor and the job still completes.
func TestFleetRedispatchAroundDeadWorker(t *testing.T) {
	coord, cts := startFleet(t, 2, t.TempDir())
	if _, err := coord.registry.register("wdead", "dead://x"); err != nil {
		t.Fatal(err)
	}
	got := submitAndWait(t, cts, fleetJobBody)
	if got.State != JobDone {
		t.Fatalf("fleet with a dead member must still finish: %+v", got)
	}
	// 6 cells over a ring with a dead third member: statistically certain
	// at least one cell needed a redispatch.
	if coord.svc.CellsRedispatched.Load() == 0 {
		t.Fatal("no redispatches recorded around the dead worker")
	}
}

// TestFleetRoleGates: role-gated endpoints answer 409 on the wrong node
// kind, and /v1/healthz reports role identity.
func TestFleetRoleGates(t *testing.T) {
	coord, cts := startFleet(t, 1, t.TempDir())
	_ = coord

	// A coordinator refuses direct cell execution.
	resp, err := http.Post(cts.URL+"/v1/cells", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /v1/cells on coordinator: %d, want 409", resp.StatusCode)
	}
	if node := resp.Header.Get(HeaderNode); node != "coord" {
		t.Fatalf("node header %q, want coord", node)
	}
	// A coordinator refuses trace jobs (no local pipeline under Exec).
	resp2, _ := http.Post(cts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"configs":[{"name":"m","model":"monopath"}],"trace":true}`))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace job on coordinator: %d, want 400", resp2.StatusCode)
	}

	// A standalone node refuses fleet membership calls.
	_, sts := newTestServer(t, Config{})
	resp3, _ := http.Post(sts.URL+"/v1/workers", "application/json", strings.NewReader(`{"id":"w","addr":"http://x"}`))
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("POST /v1/workers on standalone: %d, want 409", resp3.StatusCode)
	}

	// Healthz reports role and live workers on the coordinator.
	hr, _ := http.Get(cts.URL + "/v1/healthz")
	var health map[string]string
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health["role"] != RoleCoordinator || health["node"] != "coord" || health["workers_live"] != "1" {
		t.Fatalf("healthz = %v", health)
	}

	// GET /v1/workers lists the fleet.
	wr, _ := http.Get(cts.URL + "/v1/workers")
	var fs FleetStatus
	if err := json.NewDecoder(wr.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	wr.Body.Close()
	if fs.Coordinator != "coord" || fs.WorkersLive != 1 || len(fs.Workers) != 1 || fs.Workers[0].ID != "w1" {
		t.Fatalf("fleet status = %+v", fs)
	}
}

// TestWorkerRegistrationAPI: the register/heartbeat endpoints grant and
// renew leases; heartbeats for unknown workers demand re-registration.
func TestWorkerRegistrationAPI(t *testing.T) {
	_, cts := startFleet(t, 0, "")
	reg := func(body string) *http.Response {
		resp, err := http.Post(cts.URL+"/v1/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := reg(`{"id":"w9","addr":"http://127.0.0.1:1"}`)
	var lease WorkerLease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lease.LeaseMS <= 0 || lease.Coordinator != "coord" {
		t.Fatalf("register: %d %+v", resp.StatusCode, lease)
	}
	hb, err := http.Post(cts.URL+"/v1/workers/w9/heartbeat", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	hb.Body.Close()
	if hb.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: %d, want 200", hb.StatusCode)
	}
	hb2, _ := http.Post(cts.URL+"/v1/workers/ghost/heartbeat", "application/json", strings.NewReader(`{}`))
	hb2.Body.Close()
	if hb2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown worker heartbeat: %d, want 404", hb2.StatusCode)
	}
	bad := reg(`{"id":"","addr":""}`)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty registration: %d, want 400", bad.StatusCode)
	}
}
