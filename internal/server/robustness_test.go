package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosBody is a valid request whose title carries the chaos-panic trigger;
// identical bodies share one crash signature.
const chaosBody = `{"configs":[{"name":"mono","model":"monopath"}],"title":"boom sweep (IPC)","benchmarks":["compress"],"insts":10000}`

// TestWorkerPanicContainedAndQuarantined crashes the worker three times
// with the same request and checks: every crash fails only its own job
// (the process and other requests keep working), the fourth submission is
// refused with 403, and /v1/quarantine reports the offender.
func TestWorkerPanicContainedAndQuarantined(t *testing.T) {
	_, ts := newTestServer(t, Config{ChaosPanic: "boom"})

	for i := 1; i <= 3; i++ {
		j := submitAndWait(t, ts, chaosBody)
		if j.State != JobFailed {
			t.Fatalf("crash %d: state %s (%s), want failed", i, j.State, j.Error)
		}
		if !strings.Contains(j.Error, "worker panic") {
			t.Fatalf("crash %d: error %q does not mention the contained panic", i, j.Error)
		}
		// The process must have survived the panic.
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatalf("healthz after crash %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz after crash %d: status %d", i, resp.StatusCode)
		}
	}

	// The fourth submission of the same request is quarantined.
	resp, data := post(t, ts, chaosBody)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("quarantined submit: status %d, want 403; body: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || !strings.Contains(eb.Error, "quarantine") {
		t.Fatalf("403 body %s does not mention quarantine", data)
	}

	// A different (healthy) request still runs to completion.
	ok := submitAndWait(t, ts, `{"configs":[{"name":"mono","model":"monopath"}],"benchmarks":["compress"],"insts":10000}`)
	if ok.State != JobDone {
		t.Fatalf("healthy job after quarantine: state %s (%s)", ok.State, ok.Error)
	}

	// The quarantine list names the offender.
	qresp, err := http.Get(ts.URL + "/v1/quarantine")
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var entries []QuarantineEntry
	if err := json.NewDecoder(qresp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("quarantine list has %d entries, want 1: %+v", len(entries), entries)
	}
	e := entries[0]
	if !e.Quarantined || e.Crashes != 3 || !strings.Contains(e.LastError, "worker panic") {
		t.Fatalf("quarantine entry: %+v", e)
	}

	snap := getStats(t, ts)
	if snap.WorkerPanics != 3 || snap.JobsQuarantined != 1 || snap.JobsFailed != 3 {
		t.Fatalf("stats: worker_panics=%d jobs_quarantined=%d jobs_failed=%d, want 3/1/3",
			snap.WorkerPanics, snap.JobsQuarantined, snap.JobsFailed)
	}
}

// TestQuarantineSignatures pins the signature semantics: equal requests
// share a crash budget, different requests do not.
func TestQuarantineSignatures(t *testing.T) {
	q := newQuarantine(2)
	a := JobRequest{Experiment: "fig8", Insts: 10000}
	b := JobRequest{Experiment: "table1", Insts: 10000}
	now := time.Unix(1700000000, 0)

	if _, tipped := q.recordCrash(a, "a", "boom", []string{"node-a"}, now); tipped {
		t.Fatal("first crash must not quarantine at threshold 2")
	}
	if _, bad := q.check(a); bad {
		t.Fatal("one crash below threshold must not quarantine")
	}
	if _, tipped := q.recordCrash(a, "a", "boom", []string{"node-b"}, now.Add(time.Second)); !tipped {
		t.Fatal("second crash must tip the threshold")
	}
	if _, bad := q.check(a); !bad {
		t.Fatal("request a should be quarantined")
	}
	if _, bad := q.check(b); bad {
		t.Fatal("request b never crashed and must not be quarantined")
	}
	if _, tipped := q.recordCrash(a, "a", "boom", []string{"node-b"}, now.Add(2*time.Second)); tipped {
		t.Fatal("already-quarantined entries must not re-tip")
	}
	if got := q.list(); len(got) != 1 || got[0].Crashes != 3 {
		t.Fatalf("list: %+v", got)
	}
}

// journalRecord marshals a journal entry for a valid one-config request.
func journalRecord(t testing.TB, id string) []byte {
	t.Helper()
	payload, err := json.Marshal(journalEntry{
		ID: id,
		Request: JobRequest{
			Configs:    []ConfigEntry{{Name: "mono", Model: "monopath"}},
			Benchmarks: []string{"compress"},
			Insts:      10000,
		},
		Submitted: time.Unix(1700000000, 0).UTC(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// legacyJournalRecord is job-000003's record in the pre-checksum format.
func legacyJournalRecord(t testing.TB) []byte {
	return append(journalRecord(t, "job-000003"), '\n')
}

// damagedJournal returns a journal holding two intact records
// (job-000001, job-000002), a legacy record (job-000003), a bit-rotted
// record (job-000004) and a torn tail (job-000005).
func damagedJournal(t testing.TB) []byte {
	good1 := appendJournalRecord(nil, journalRecord(t, "job-000001"))
	good2 := appendJournalRecord(nil, journalRecord(t, "job-000002"))
	rotten := appendJournalRecord(nil, journalRecord(t, "job-000004"))
	rotten[20] ^= 0x40 // flip one payload bit; the checksum no longer matches
	torn := appendJournalRecord(nil, journalRecord(t, "job-000005"))
	torn = torn[:len(torn)/2] // write cut off mid-record, no newline
	return bytes.Join([][]byte{good1, good2, legacyJournalRecord(t), rotten, torn}, nil)
}

// tenantPayload encodes e as servers with per-tenant queues journaled
// it, with a "tenant" field.
func tenantPayload(t testing.TB, e journalEntry) []byte {
	t.Helper()
	payload, err := json.Marshal(struct {
		journalEntry
		Tenant string `json:"tenant"`
	}{e, "acme"})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// tenantJournal is a journal from a server with per-tenant queues:
// job-000001's accept/done pair, then job-000002's accept.
func tenantJournal(t testing.TB) []byte {
	var blob []byte
	for _, rec := range []struct{ id, op string }{
		{"job-000001", "accept"}, {"job-000001", "done"}, {"job-000002", "accept"},
	} {
		var e journalEntry
		if err := json.Unmarshal(journalRecord(t, rec.id), &e); err != nil {
			t.Fatal(err)
		}
		e.Op = rec.op
		blob = appendJournalRecord(blob, tenantPayload(t, e))
	}
	return blob
}

// TestJournalCorruptionRecovery loads a journal containing intact records,
// a line longer than maxJournalLine, a bit-rotted record, a torn tail, and
// a legacy (pre-checksum) record. The damaged records are dropped and
// counted; everything intact resumes.
func TestJournalCorruptionRecovery(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "polyserve.journal")
	blob := append(bytes.Repeat([]byte{'x'}, maxJournalLine+1), '\n')
	blob = append(blob, damagedJournal(t)...)
	if err := os.WriteFile(journal, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// A server whose worker blocks, so resumed jobs stay visibly queued.
	s := &Server{cfg: Config{QueueCapacity: 8, JournalPath: journal, Log: testLogger(t)}.withDefaults(), jobs: make(map[string]*Job)}
	release := make(chan struct{})
	s.sched = newScheduler(1, 8, func(j *Job) { <-release })
	defer func() { close(release); s.sched.drain(); s.walClose() }()

	n, err := s.loadJournal(journal)
	if err != nil {
		t.Fatalf("loadJournal must survive corruption, got %v", err)
	}
	if n != 3 {
		t.Fatalf("resumed %d jobs, want 3 (two checksummed + one legacy)", n)
	}
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("intact record %s was not resumed", id)
		}
	}
	for _, id := range []string{"job-000004", "job-000005"} {
		if _, ok := s.Job(id); ok {
			t.Fatalf("damaged record %s must not be resumed", id)
		}
	}
	if got := s.svc.JournalResumed.Load(); got != 3 {
		t.Fatalf("journal_resumed = %d, want 3", got)
	}
	if got := s.svc.JournalDropped.Load(); got != 3 {
		t.Fatalf("journal_dropped = %d, want 3", got)
	}
	want := []string{"job-000001 accept", "job-000002 accept", "job-000003 accept"}
	if got := journalOps(t, journal); !slices.Equal(got, want) {
		t.Fatalf("compacted journal holds %q, want %q", got, want)
	}
}

// journalOps lists the journal's records in file order as "<id> <op>",
// reading a compacted record (no op) as an accept.
func journalOps(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		payload, err := parseJournalLine([]byte(line))
		if err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		var e journalEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		if e.Op == "" {
			e.Op = "accept"
		}
		ops = append(ops, e.ID+" "+e.Op)
	}
	return ops
}

// TestJournalRoundTripWithChecksums checks writeJournal output parses
// record-for-record through the loader's line parser.
func TestJournalRoundTripWithChecksums(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "polyserve.journal")
	jobs := []*Job{
		{ID: "job-000007", Request: JobRequest{Experiment: "fig8"}, Submitted: time.Unix(1700000000, 0).UTC()},
		{ID: "job-000008", Request: JobRequest{Experiment: "table1"}, Submitted: time.Unix(1700000100, 0).UTC()},
	}
	if err := writeJournal(journal, jobs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2:\n%s", len(lines), data)
	}
	for i, line := range lines {
		payload, err := parseJournalLine([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		var e journalEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if e.ID != jobs[i].ID {
			t.Fatalf("line %d: ID %s, want %s", i+1, e.ID, jobs[i].ID)
		}
	}
}

// TestReadJournalLine checks the loader's line reader: endings are
// stripped, a line past the limit is skipped whole wherever it falls
// (including across the reader's buffer and at EOF without a newline),
// and reading resumes on the next line.
func TestReadJournalLine(t *testing.T) {
	long := strings.Repeat("x", 5000) // longer than the 4096-byte buffer
	in := "a\r\n\n" + long + "\nb\n" + long + "\n" + strings.Repeat("y", 4500) + "\n" + long
	r := bufio.NewReader(strings.NewReader(in))
	want := []struct {
		line string
		err  error
	}{
		{"a", nil}, {"", nil}, {"", errJournalLineTooLong}, {"b", nil},
		{"", errJournalLineTooLong}, {strings.Repeat("y", 4500), nil},
		{"", errJournalLineTooLong}, {"", io.EOF},
	}
	for i, w := range want {
		got, err := readJournalLine(r, 4500)
		if string(got) != w.line || err != w.err {
			t.Fatalf("line %d: got %d bytes, %v; want %d bytes, %v", i+1, len(got), err, len(w.line), w.err)
		}
	}
}

// longTitleBody is a valid request whose 200 000-character title is all
// '<'. The body is about 200 kB, but json.Marshal writes each '<' as the
// six bytes \u003c, so the job's journal records are 1.2 MB each.
var longTitleBody = `{"configs":[{"name":"mono","model":"monopath"}],"benchmarks":["compress"],"insts":10000,"title":"` +
	strings.Repeat("<", 200_000) + `"}`

// TestWALLongRecordSurvivesRestart submits the long-title job to a
// journaling server, lets it finish, and starts a new server on
// the same journal: the records must load like any other, so startup
// succeeds with nothing dropped and nothing to resume. A journal whose
// one pending record is the long accept compacts to a fixed point:
// loading it again drops nothing and resumes the same job.
func TestWALLongRecordSurvivesRestart(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "wal.journal"), Log: testLogger(t)}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	j := submitAndWait(t, ts, longTitleBody)
	ts.Close()
	if _, err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	if j.State != JobDone {
		t.Fatalf("long-title job ended %s (%s), want done", j.State, j.Error)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart on the journal: %v", err)
	}
	defer s2.Drain()
	if got := s2.svc.JournalDropped.Load(); got != 0 {
		t.Fatalf("journal_dropped = %d, want 0", got)
	}
	if got := s2.svc.JournalResumed.Load(); got != 0 {
		t.Fatalf("journal_resumed = %d, want 0 (the job finished)", got)
	}

	long := journalEntry{ID: "job-000006", Op: "accept"}
	if err := json.Unmarshal([]byte(longTitleBody), &long.Request); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "long.journal")
	if err := os.WriteFile(path, appendJournalRecord(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	first, dropped := loadWALForTest(t, path)
	if len(first) != 1 || dropped != 0 {
		t.Fatalf("long accept: resumed %d, dropped %d; want 1, 0", len(first), dropped)
	}
	second, dropped := loadWALForTest(t, path)
	if dropped != 0 || !slices.Equal(first, second) {
		t.Fatalf("the compacted long journal dropped %d and resumed a different job", dropped)
	}
}

// FuzzLoadJournal uses the fuzz input as a write-ahead journal file.
// Loading never panics and never fails on the file's content, and the
// journal it compacts to is a fixed point: loading that again drops
// nothing and resumes the same jobs, byte for byte.
func FuzzLoadJournal(f *testing.F) {
	f.Add(damagedJournal(f))
	f.Add(legacyJournalRecord(f))
	f.Add(tenantJournal(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, _ := loadWALForTest(t, path)
		second, dropped := loadWALForTest(t, path)
		if dropped != 0 {
			t.Fatalf("the compacted journal dropped %d records", dropped)
		}
		if !slices.Equal(first, second) {
			t.Fatalf("the compacted journal resumed\n%q\nwant\n%q", second, first)
		}
	})
}

// loadWALForTest loads path as a write-ahead journal on a fresh server
// whose queue never fills, and returns the resumed jobs' entries as JSON,
// by ID, and the journal_dropped count.
func loadWALForTest(t *testing.T, path string) ([]string, uint64) {
	s := &Server{
		cfg:  Config{JournalPath: path, Log: log.New(io.Discard, "", 0)}.withDefaults(),
		jobs: make(map[string]*Job),
	}
	s.sched = newScheduler(1, math.MaxInt, func(*Job) {})
	defer s.sched.drain()
	defer s.walClose()
	if _, err := s.loadJournal(path); err != nil {
		t.Fatalf("loadJournal failed on file content: %v", err)
	}
	var resumed []string
	for id, j := range s.jobs {
		b, err := json.Marshal(journalEntry{ID: id, Request: j.Request, Submitted: j.Submitted})
		if err != nil {
			t.Fatal(err)
		}
		resumed = append(resumed, string(b))
	}
	slices.Sort(resumed)
	return resumed, s.svc.JournalDropped.Load()
}

// TestDrainRacesWorkerPanic drains the server while a chaos job is
// panicking in the worker and others sit in the queue: every job must end
// up either failed (panic contained mid-drain) or journaled — never lost.
func TestDrainRacesWorkerPanic(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "polyserve.journal")
	s, err := New(Config{
		Workers:       1,
		QueueCapacity: 8,
		JournalPath:   journal,
		ChaosPanic:    "boom",
		Log:           testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}

	// One chaos job that will panic in the worker, plus queued jobs the
	// drain must journal.
	var ids []string
	crash, err := s.Submit(JobRequest{
		Configs:    []ConfigEntry{{Name: "mono", Model: "monopath"}},
		Title:      "boom sweep (IPC)",
		Benchmarks: []string{"compress"},
		Insts:      10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, crash.ID)
	for i := 0; i < 3; i++ {
		j, err := s.Submit(JobRequest{
			Configs:    []ConfigEntry{{Name: "mono", Model: "monopath"}},
			Benchmarks: []string{"compress"},
			Insts:      20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	// Drain concurrently with the in-flight panic (this is what the
	// SIGTERM handler in cmd/polyserve does).
	var wg sync.WaitGroup
	var journaled int
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, err := s.Drain()
		if err != nil {
			t.Errorf("drain: %v", err)
		}
		journaled = n
	}()
	wg.Wait()

	// A job is journaled while its last record is an accept.
	journaledIDs := make(map[string]bool)
	for _, op := range journalOps(t, journal) {
		id, kind, _ := strings.Cut(op, " ")
		journaledIDs[id] = kind == "accept"
	}
	pending := 0
	for _, ok := range journaledIDs {
		if ok {
			pending++
		}
	}
	if pending != journaled {
		t.Fatalf("journal has %d pending jobs, Drain reported %d", pending, journaled)
	}

	// Account for every job: finished (done/failed) or journaled — a job
	// that is neither was lost by the drain/panic race.
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch {
		case j.State == JobDone || j.State == JobFailed:
			// Ran to completion (the chaos job must be failed, not lost).
		case j.State == JobQueued && journaledIDs[id]:
			// Still queued at drain time and safely journaled.
		default:
			t.Fatalf("job %s lost: state=%s journaled=%v", id, j.State, journaledIDs[id])
		}
	}
	if crashJob, _ := s.Job(crash.ID); crashJob.State == JobFailed {
		if !strings.Contains(crashJob.Error, "worker panic") {
			t.Fatalf("chaos job error %q does not mention the contained panic", crashJob.Error)
		}
	} else if !journaledIDs[crash.ID] {
		t.Fatalf("chaos job neither failed nor journaled: %+v", crashJob)
	}
}
