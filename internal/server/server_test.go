package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// newTestServer starts a server behind an httptest listener, both closed
// when t ends. Its events go to t's log unless cfg.Log is set.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = testLogger(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Drain() })
	return s, ts
}

func testLogger(t testing.TB) *log.Logger {
	return log.New(testWriter{t}, "", 0)
}

type testWriter struct{ t testing.TB }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func post(t testing.TB, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// submitAndWait submits a request and polls until the job leaves the
// queued/running states, returning the final job view. The poll interval
// starts at 100µs and doubles up to 5ms, so a job that finishes within a
// millisecond is seen finished within about that long.
func submitAndWait(t testing.TB, ts *httptest.Server, body string) Job {
	t.Helper()
	resp, data := post(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for wait := 100 * time.Microsecond; time.Now().Before(deadline); wait = min(2*wait, 5*time.Millisecond) {
		got := getJob(t, ts, j.ID)
		if got.State != JobQueued && got.State != JobRunning {
			return got
		}
		time.Sleep(wait)
	}
	t.Fatalf("job %s did not finish within 60s", j.ID)
	return Job{}
}

func getJob(t testing.TB, ts *httptest.Server, id string) Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get job %s: status %d", id, resp.StatusCode)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func getResult(t testing.TB, ts *httptest.Server, id string) JobResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/results/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d", id, resp.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func getStats(t *testing.T, ts *httptest.Server) Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestBadRequests exercises the typed-error surface: every invalid
// request must come back as HTTP 400 with a JSON error, never a panic.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInsts: 100000})
	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"empty", `{}`, "exactly one of"},
		{"both", `{"experiment":"fig8","configs":[{"name":"x","model":"see"}]}`, "exactly one of"},
		{"not json", `{`, "invalid request body"},
		{"unknown field", `{"experimnt":"fig8"}`, "unknown field"},
		{"unknown experiment", `{"experiment":"fig99"}`, "unknown experiment"},
		{"unknown model", `{"configs":[{"name":"x","model":"warp"}]}`, "unknown model"},
		{"unknown benchmark", `{"experiment":"fig8","benchmarks":["doom"]}`, "unknown benchmark"},
		{"insts over cap", `{"experiment":"fig8","insts":200000}`, "exceeds the server cap"},
		{"negative timeout", `{"experiment":"fig8","timeout_sec":-1}`, "timeout_sec"},
		{"missing name", `{"configs":[{"model":"see"}]}`, "missing \"name\""},
		{"duplicate name", `{"configs":[{"name":"x","model":"see"},{"name":"x","model":"monopath"}]}`, "duplicate name"},
		{"model and config", `{"configs":[{"name":"x","model":"see","config":{"schema":"polypath/v1"}}]}`, "not both"},
		{"neither model nor config", `{"configs":[{"name":"x"}]}`, "need \"model\" or \"config\""},
		{"bad schema", `{"configs":[{"name":"x","config":{"schema":"polypath/v9"}}]}`, "schema"},
		{"invalid machine", `{"configs":[{"name":"x","config":{"schema":"polypath/v1","mode":"see","fetch_width":0}}]}`, "invalid config"},
		{"config unknown field", `{"configs":[{"name":"x","config":{"schema":"polypath/v1","widow_size":64}}]}`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body: %s", resp.StatusCode, data)
			}
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil {
				t.Fatalf("error body not JSON: %s", data)
			}
			if !strings.Contains(eb.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.want)
			}
		})
	}
}

// TestBackpressure saturates a 1-worker/1-slot server with a controllable
// scheduler and checks the 429 + Retry-After contract and the rejection
// counter.
func TestBackpressure(t *testing.T) {
	s := &Server{cfg: Config{QueueCapacity: 1, Log: testLogger(t)}, jobs: make(map[string]*Job)}
	release := make(chan struct{})
	s.sched = newScheduler(1, 1, func(j *Job) { <-release })
	defer func() { close(release); s.sched.drain() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"experiment":"fig8"}`
	if resp, data := post(t, ts, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, data)
	}
	// Wait for the worker to pick the first job up, so the second occupies
	// the single queue slot deterministically.
	waitFor(t, func() bool { q, r := s.sched.depth(); return r == 1 && q == 0 })
	if resp, data := post(t, ts, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", resp.StatusCode, data)
	}

	resp, data := post(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429; body: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if snap := getStats(t, ts); snap.JobsRejected != 1 || snap.QueueDepth != 1 || snap.RunningJobs != 1 {
		t.Fatalf("stats after rejection: %+v", snap)
	}
}

const sweepBody = `{
  "configs": [{"name":"monopath","model":"monopath"},{"name":"SEE","model":"see"}],
  "title": "test sweep (IPC)",
  "benchmarks": ["compress"],
  "insts": 20000
}`

// TestCacheHitServesIdenticalResult runs the same sweep twice and checks
// the second run is served from the memoization cache with byte-identical
// output.
func TestCacheHitServesIdenticalResult(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheCells: 64})

	first := submitAndWait(t, ts, sweepBody)
	if first.State != JobDone {
		t.Fatalf("first job: state %s (%s)", first.State, first.Error)
	}
	cold := getResult(t, ts, first.ID)
	if cold.Cells != 2 || cold.CacheHits != 0 {
		t.Fatalf("cold run: cells=%d hits=%d, want 2/0", cold.Cells, cold.CacheHits)
	}
	if !strings.Contains(cold.Text, "test sweep (IPC)") || !strings.Contains(cold.Text, "compress") {
		t.Fatalf("unexpected table:\n%s", cold.Text)
	}

	second := submitAndWait(t, ts, sweepBody)
	if second.State != JobDone {
		t.Fatalf("second job: state %s (%s)", second.State, second.Error)
	}
	warm := getResult(t, ts, second.ID)
	if warm.CacheHits != warm.Cells || warm.Cells != 2 {
		t.Fatalf("warm run: cells=%d hits=%d, want all 2 from cache", warm.Cells, warm.CacheHits)
	}
	if warm.Text != cold.Text {
		t.Fatalf("cache replay differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", cold.Text, warm.Text)
	}
	if warm.SimInsts != cold.SimInsts {
		t.Fatalf("sim_insts differ: %d vs %d", cold.SimInsts, warm.SimInsts)
	}

	snap := getStats(t, ts)
	if snap.CacheHits != 2 || snap.CacheMisses != 2 || snap.CacheHitRate != 0.5 {
		t.Fatalf("cache stats: %+v", snap)
	}
	if snap.CellsSimulated != 2 || snap.CellsFromCache != 2 || snap.JobsCompleted != 2 {
		t.Fatalf("service stats: %+v", snap)
	}
}

// TestExperimentMatchesHarness checks a service experiment job renders the
// exact bytes the shared registry produces (which is what cmd/experiments
// prints under its header).
func TestExperimentMatchesHarness(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"experiment":"table1","benchmarks":["compress"],"insts":20000}`

	j := submitAndWait(t, ts, body)
	if j.State != JobDone {
		t.Fatalf("job: state %s (%s)", j.State, j.Error)
	}
	got := getResult(t, ts, j.ID)

	r, err := harness.RunExperiment("table1", harness.Options{
		TargetInsts: 20000, Benchmarks: []string{"compress"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Render(); got.Text != want {
		t.Fatalf("service output differs from harness:\n--- service ---\n%s\n--- harness ---\n%s", got.Text, want)
	}
}

// TestCancelRunningJob cancels a long job mid-simulation and checks it
// lands in the cancelled state via context propagation.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, `{"configs":[{"name":"see","model":"see"}],"benchmarks":["compress"],"insts":50000000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return getJob(t, ts, j.ID).State == JobRunning })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	waitFor(t, func() bool { return getJob(t, ts, j.ID).State == JobCancelled })

	rresp, err := http.Get(ts.URL + "/v1/results/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job: status %d, want 410", rresp.StatusCode)
	}
}

// TestJobTimeout gives a long job a 50ms cap and checks it fails with a
// deadline error instead of running forever.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultTimeout: 50 * time.Millisecond})
	j := submitAndWait(t, ts, `{"configs":[{"name":"see","model":"see"}],"benchmarks":["compress"],"insts":50000000}`)
	if j.State != JobFailed {
		t.Fatalf("state %s (%s), want failed", j.State, j.Error)
	}
	if !strings.Contains(j.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", j.Error)
	}
}

// TestDrainJournalsAndResumes drains a server with a queued job and checks
// a fresh server re-enqueues it from the journal, runs it under its
// original ID, and compacts the journal down to that job's records.
func TestDrainJournalsAndResumes(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "polyserve.journal")

	// A server whose single worker blocks, so the second job stays queued.
	// Its runner records the job done, as runJob does.
	s := &Server{cfg: Config{QueueCapacity: 4, JournalPath: journal, Log: testLogger(t)}, jobs: make(map[string]*Job)}
	release := make(chan struct{})
	s.sched = newScheduler(1, 4, func(j *Job) { <-release; s.walAppend("done", j) })
	if _, err := s.loadJournal(journal); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	if resp, data := post(t, ts, `{"experiment":"fig8"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, data)
	}
	waitFor(t, func() bool { _, r := s.sched.depth(); return r == 1 })
	resp, data := post(t, ts, `{"configs":[{"name":"mono","model":"monopath"}],"benchmarks":["compress"],"insts":10000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", resp.StatusCode, data)
	}
	var queued Job
	if err := json.Unmarshal(data, &queued); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	go close(release)
	n, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("journaled %d jobs, want 1", n)
	}

	// Restart: the journaled job must resume under its original ID.
	s2, ts2 := newTestServer(t, Config{JournalPath: journal})
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, ok := s2.Job(queued.ID)
		if ok && j.State == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journaled job %s did not finish (found=%v)", queued.ID, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res := getResult(t, ts2, queued.ID)
	if !strings.Contains(res.Text, "compress") {
		t.Fatalf("resumed job produced unexpected table:\n%s", res.Text)
	}
	// The first job finished before the drain, so compaction dropped it.
	want := []string{queued.ID + " accept", queued.ID + " done"}
	if got := journalOps(t, journal); !slices.Equal(got, want) {
		t.Fatalf("journal after resume holds %q, want %q", got, want)
	}

	// A fresh ID must not collide with the resumed one.
	fresh := submitAndWait(t, ts2, `{"configs":[{"name":"mono","model":"monopath"}],"benchmarks":["compress"],"insts":10000}`)
	if fresh.ID == queued.ID {
		t.Fatalf("fresh job reused the resumed ID %s", fresh.ID)
	}
}

// TestStandaloneJournalSurvivesAbruptStop: a standalone server journals a
// job the moment it accepts it, so the job outlives a server that stops
// without Drain, and a new server on the same path resumes it under its
// original ID.
func TestStandaloneJournalSurvivesAbruptStop(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "polyserve.journal")
	s1, err := New(Config{JournalPath: journal, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	// A runner that never finishes a job: the server stops first.
	s1.sched.drain()
	s1.sched = newScheduler(1, 4, func(*Job) {})
	t.Cleanup(func() { s1.sched.drain(); s1.walClose() })
	accepted, err := s1.SubmitAs(JobRequest{
		Configs:    []ConfigEntry{{Name: "mono", Model: "monopath"}},
		Benchmarks: []string{"compress"},
		Insts:      10000,
	}, "")
	if err != nil {
		t.Fatal(err)
	}

	// s1 is abandoned here, never drained.
	s2, ts2 := newTestServer(t, Config{JournalPath: journal})
	if _, ok := s2.Job(accepted.ID); !ok {
		t.Fatalf("job %s accepted before the stop was not resumed", accepted.ID)
	}
	waitFor(t, func() bool { j, _ := s2.Job(accepted.ID); return j.State == JobDone })
	if res := getResult(t, ts2, accepted.ID); !strings.Contains(res.Text, "compress") {
		t.Fatalf("resumed job produced unexpected table:\n%s", res.Text)
	}
}

// TestUnknownJobRoutes checks 404s on the id-addressed endpoints.
func TestUnknownJobRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{"/v1/jobs/job-999999", "/v1/results/job-999999"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", url, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: status %d, want 404", resp.StatusCode)
	}
}

// TestHealthz is the smoke probe CI uses.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// TestRequestBodyRejectsTrailingData: a submission body is exactly one
// JSON value. Anything but whitespace after it is a 400; trailing
// whitespace is accepted.
func TestRequestBodyRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInsts: 100000})
	const body = `{"configs":[{"name":"mono","model":"monopath"}],"benchmarks":["compress"],"insts":1000}`
	cases := []struct {
		name    string
		trailer string
		want    int
	}{
		{"junk", " junk", http.StatusBadRequest},
		{"second document", `{"experiment":"fig8"}`, http.StatusBadRequest},
		{"closing brace", "}", http.StatusBadRequest},
		{"closing bracket", "]", http.StatusBadRequest},
		{"trailing newline", "\n", http.StatusAccepted},
		{"trailing whitespace", " \t\r\n ", http.StatusAccepted},
	}
	for _, tc := range cases {
		t.Run("jobs/"+tc.name, func(t *testing.T) {
			resp, data := post(t, ts, body+tc.trailer)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, tc.want, data)
			}
		})
	}
}
