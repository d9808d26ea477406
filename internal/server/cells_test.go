package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
)

// getCells fetches one page of a job's cell stream.
func getCells(t *testing.T, ts *httptest.Server, id string, after int) cellsPage {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/cells?after=%d", ts.URL, id, after))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells of %s after %d: status %d", id, after, resp.StatusCode)
	}
	var page cellsPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

// getStatus returns the status code of a GET.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// batchJobBody is a configs job of four cells: two benchmarks under two
// models.
const batchJobBody = `{
  "title": "sweep test (IPC)",
  "configs": [{"name":"monopath","model":"monopath"},{"name":"SEE","model":"see"}],
  "benchmarks": ["compress","gcc"],
  "insts": 3000
}`

// TestSweepLifecycleAndCellStream pages a finished configs job's cell
// stream one cell at a time, as a live client would.
func TestSweepLifecycleAndCellStream(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheCells: 64, SimParallelism: 4})
	j := submitAndWait(t, ts, batchJobBody)
	if j.State != JobDone {
		t.Fatalf("job state = %s (error %q), want done", j.State, j.Error)
	}

	var cells []JobCell
	for after := 0; ; after++ {
		page := getCells(t, ts, j.ID, after)
		if page.JobID != j.ID || page.State != JobDone {
			t.Fatalf("page after %d: job %q state %s, want %s done", after, page.JobID, page.State, j.ID)
		}
		if page.TotalCells != 4 || page.DoneCells != 4 || page.NextAfter != max(after, 4) {
			t.Fatalf("page after %d: total %d done %d next_after %d, want 4, 4, %d",
				after, page.TotalCells, page.DoneCells, page.NextAfter, max(after, 4))
		}
		if len(page.Cells) == 0 {
			break
		}
		cells = append(cells, page.Cells[0])
	}
	if len(cells) != 4 {
		t.Fatalf("cell stream has %d cells, want 4", len(cells))
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		if c.Seq != i+1 {
			t.Fatalf("cells[%d].seq = %d, want %d", i, c.Seq, i+1)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate cell id %q in stream", c.ID)
		}
		seen[c.ID] = true
		if c.Shard < 0 || c.Shard >= 4 {
			t.Fatalf("cell %s ran on shard %d, outside [0,4)", c.ID, c.Shard)
		}
	}
	for _, id := range []string{"compress/monopath", "compress/SEE", "gcc/monopath", "gcc/SEE"} {
		if !seen[id] {
			t.Fatalf("cell %q missing from stream (got %v)", id, cells)
		}
	}
}

// TestSweepResultMatchesJob pins the determinism contract end to end: the
// same configs job renders the byte-identical table on a node running one
// cell at a time and on one running four.
func TestSweepResultMatchesJob(t *testing.T) {
	var text [2]string
	for i, par := range []int{1, 4} {
		_, ts := newTestServer(t, Config{SimParallelism: par})
		j := submitAndWait(t, ts, batchJobBody)
		if j.State != JobDone {
			t.Fatalf("parallelism %d: job state = %s (error %q)", par, j.State, j.Error)
		}
		text[i] = getResult(t, ts, j.ID).Text
	}
	if text[0] != text[1] {
		t.Fatalf("parallelism 1 and 4 rendered different tables:\n--- 1 ---\n%s\n--- 4 ---\n%s", text[0], text[1])
	}
}

// TestSweepSharesMemoCache: resubmitting a configs job replays every cell
// from the memo cache, and its stream says so.
func TestSweepSharesMemoCache(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheCells: 64})
	first := submitAndWait(t, ts, batchJobBody)
	if page := getCells(t, ts, first.ID, 0); first.State != JobDone || page.CachedCells != 0 {
		t.Fatalf("first job: state %s, cached %d", first.State, page.CachedCells)
	}
	second := submitAndWait(t, ts, batchJobBody)
	if second.State != JobDone {
		t.Fatalf("second job state = %s (error %q)", second.State, second.Error)
	}
	page := getCells(t, ts, second.ID, 0)
	if page.CachedCells != page.TotalCells || len(page.Cells) != page.TotalCells {
		t.Fatalf("second job replayed %d/%d cells from cache (%d streamed), want all", page.CachedCells, page.TotalCells, len(page.Cells))
	}
	for _, c := range page.Cells {
		if !c.FromCache {
			t.Fatalf("cell %s of the resubmitted job was not from_cache", c.ID)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, want string
	}{
		{"no configs", `{"benchmarks":["compress"]}`, `exactly one of "experiment" or "configs"`},
		{"bad parallelism", `{"configs":[{"name":"x","model":"see"}],"parallelism":65}`, `unknown field "parallelism"`},
		{"unknown field", `{"configs":[{"name":"x","model":"see"}],"shards":4}`, `unknown field "shards"`},
		{"unknown benchmark", `{"configs":[{"name":"x","model":"see"}],"benchmarks":["doom"]}`, "unknown benchmark"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
			}
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil || !strings.Contains(eb.Error, tc.want) {
				t.Fatalf("error %s does not mention %q", data, tc.want)
			}
		})
	}

	if code := getStatus(t, ts.URL+"/v1/jobs/job-000099/cells"); code != http.StatusNotFound {
		t.Fatalf("unknown job cells: status %d, want 404", code)
	}
	j := submitAndWait(t, ts, `{"configs":[{"name":"x","model":"see"}],"benchmarks":["compress"],"insts":1000}`)
	for _, cursor := range []string{"-1", "x"} {
		if code := getStatus(t, ts.URL+"/v1/jobs/"+j.ID+"/cells?after="+cursor); code != http.StatusBadRequest {
			t.Fatalf("cursor %q: status %d, want 400", cursor, code)
		}
	}
}

// TestSweepStatsAndMetrics: every job reports its cells to the shard
// metrics, and the sweep families are gone.
func TestSweepStatsAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	j := submitAndWait(t, ts, batchJobBody)
	if j.State != JobDone {
		t.Fatalf("job state = %s (error %q)", j.State, j.Error)
	}
	if snap := s.Stats(); snap.JobsCompleted != 1 || snap.CellsSimulated != 4 {
		t.Fatalf("jobs completed / cells simulated = %d/%d, want 1/4", snap.JobsCompleted, snap.CellsSimulated)
	}
	if n := s.cellsInflight.Load(); n != 0 {
		t.Fatalf("cells in flight after completion = %d, want 0", n)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"polyserve_cells_inflight 0",
		// At least one shard ran cells; which one wins the work race is
		// schedule-dependent, so only the family is asserted.
		`polyserve_shard_cell_duration_seconds_bucket{shard="`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "polyserve_sweep") {
		t.Fatalf("/metrics still reports a sweep family:\n%s", text)
	}
}

// TestSweepListOrder: GET /v1/jobs lists jobs in submission order.
func TestSweepListOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheCells: 64})
	a := submitAndWait(t, ts, batchJobBody)
	b := submitAndWait(t, ts, batchJobBody)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Job
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("job list %v, want [%s %s]", list, a.ID, b.ID)
	}
}

// TestExperimentCellStreamHasNoTotal: an experiment's cell count is not
// known before it runs, so its stream reports no total_cells.
func TestExperimentCellStreamHasNoTotal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j := submitAndWait(t, ts, `{"experiment":"table1","benchmarks":["compress"],"insts":2000}`)
	if j.State != JobDone {
		t.Fatalf("job state = %s (error %q)", j.State, j.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/cells")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if _, ok := page["total_cells"]; ok {
		t.Fatalf("experiment stream reports total_cells %s", page["total_cells"])
	}
	var cells []JobCell
	if err := json.Unmarshal(page["cells"], &cells); err != nil {
		t.Fatal(err)
	}
	if res := getResult(t, ts, j.ID); len(cells) == 0 || len(cells) != res.Cells || string(page["done_cells"]) != fmt.Sprint(res.Cells) {
		t.Fatalf("stream has %d cells (done_cells %s), result counts %d", len(cells), page["done_cells"], res.Cells)
	}
}

// TestResumedJobServesCellStream: a configs job resumed from the journal
// after a restart streams its cells like any other job.
func TestResumedJobServesCellStream(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "polyserve.journal")
	s1, err := New(Config{JournalPath: journal, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	// A runner that never finishes a job: the server stops first.
	s1.sched.drain()
	s1.sched = newScheduler(1, 4, func(*Job) {})
	t.Cleanup(func() { s1.sched.drain(); s1.walClose() })
	var req JobRequest
	if err := json.Unmarshal([]byte(batchJobBody), &req); err != nil {
		t.Fatal(err)
	}
	accepted, err := s1.SubmitAs(req, "")
	if err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{JournalPath: journal})
	waitFor(t, func() bool { j, _ := s2.Job(accepted.ID); return j.State == JobDone })
	page := getCells(t, ts2, accepted.ID, 0)
	if page.TotalCells != 4 || page.DoneCells != 4 || len(page.Cells) != 4 || page.NextAfter != 4 {
		t.Fatalf("resumed job %s streams total %d done %d cells %d next_after %d, want 4 each",
			accepted.ID, page.TotalCells, page.DoneCells, len(page.Cells), page.NextAfter)
	}
}

// TestCellLogConcurrentAppendAndPage: pages read while shards append see
// a growing prefix of the log, numbered in completion order, and the
// finished log holds every cell once.
func TestCellLogConcurrentAppendAndPage(t *testing.T) {
	const shards, perShard = 4, 50
	l := newCellLog(JobRequest{Configs: make([]ConfigEntry, shards), Benchmarks: make([]string, perShard)})
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				l.add(harness.CellEvent{Benchmark: fmt.Sprint(i), Config: fmt.Sprint(s), Shard: s, FromCache: i%2 == 0})
			}
		}(s)
	}
	for seen := 0; seen < shards*perShard; {
		p := l.page(seen)
		for i, c := range p.Cells {
			if c.Seq != seen+i+1 {
				t.Fatalf("page after %d: cells[%d].seq = %d, want %d", seen, i, c.Seq, seen+i+1)
			}
		}
		if p.NextAfter != seen+len(p.Cells) || p.DoneCells != p.NextAfter {
			t.Fatalf("page after %d: %d cells, next_after %d, done %d", seen, len(p.Cells), p.NextAfter, p.DoneCells)
		}
		seen = p.NextAfter
	}
	wg.Wait()
	p := l.page(0)
	ids := make(map[string]bool)
	for _, c := range p.Cells {
		ids[c.ID] = true
	}
	if p.TotalCells != shards*perShard || len(ids) != shards*perShard || p.CachedCells != shards*perShard/2 {
		t.Fatalf("total %d, %d distinct cells, %d cached; want %d, %d, %d",
			p.TotalCells, len(ids), p.CachedCells, shards*perShard, shards*perShard, shards*perShard/2)
	}
}
