package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: selection must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q, v   float64
		beyond int
	}{
		{1000, 0.99, 990, 10}, // p99.9 has 1 beyond, p99 exactly 10
		{999, 0.95, 950, 49},  // p99 rank 990 leaves 9 beyond
		{100, 0.9, 90, 10},
		{25, 0.5, 13, 12},
		{15, 1, 15, 0}, // too few for any step: the maximum, flagged by Q = 1
	} {
		got := tailPercentile(seq(tc.n))
		if got.Q != tc.q || got.Value != tc.v || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want q=%g v=%g beyond=%d", tc.n, got, tc.q, tc.v, tc.beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, _, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "child", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "child", Start: ms(30), End: ms(70)},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "child", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: ms(20), End: ms(25)},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// The parent is covered over [10,70] and [90,100]: 70 of its 100 ms.
	if p := got["parent"]; p.Self != 30*time.Millisecond || p.Total != 100*time.Millisecond {
		t.Errorf("parent = %+v, want self 30ms of 100ms", p)
	}
	// Children: 40+40+30 ms, minus the grandchild's 5 ms inside span 2.
	if c := got["child"]; c.Count != 3 || c.Total != 110*time.Millisecond || c.Self != 105*time.Millisecond {
		t.Errorf("child = %+v, want 3 spans, total 110ms, self 105ms", c)
	}
	if g := got["grandchild"]; g.Self != 5*time.Millisecond {
		t.Errorf("grandchild = %+v, want self 5ms", g)
	}
}

// withShortFig8 runs fig8-long at a test-sized instruction count.
func withShortFig8(t *testing.T) {
	saved := fig8Long
	fig8Long.insts, fig8Long.warmInsts = 2000, 2000
	t.Cleanup(func() { fig8Long = saved })
}

// shortFig8Table renders the Figure 8 table the short fig8-long produces.
func shortFig8Table(t *testing.T) string {
	bms, names := seededSuite(fig8Long.insts, defaultSeed)
	res, err := harness.Figure8(harness.Options{TargetInsts: fig8Long.insts, Benchmarks: names, Extra: bms})
	if err != nil {
		t.Fatal(err)
	}
	return harness.RenderTable(fig8Title, res.Matrix)
}

func runFig8(t *testing.T, golden string) (int, result, string) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "fig8-long", "--seconds", "0.001", "--golden", golden}, &out, &errOut)
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatalf("no result line (exit %d): %v\n%s%s", code, err, out.String(), errOut.String())
	}
	return code, res, out.String()
}

func TestFig8TableCheckPassesOnMatchingGolden(t *testing.T) {
	withShortFig8(t)
	golden := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(golden, []byte("=== fig8 (1.0s) ===\n"+shortFig8Table(t)+"\ntrailer\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, res, out := runFig8(t, golden)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	for name := range e2eUnits {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("metric %s = %v, want a positive measurement", name, res.Metrics[name].Value)
		}
	}
}

func TestForcedOutputMismatchExitsNonzero(t *testing.T) {
	withShortFig8(t)
	// One hmean IPC digit changed: the benchmark must refuse the run.
	table := shortFig8Table(t)
	i := strings.LastIndexAny(table, "0123456789")
	digit := byte('0')
	if table[i] == '0' {
		digit = '1'
	}
	wrong := table[:i] + string(digit) + table[i+1:]
	golden := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(golden, []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	code, res, out := runFig8(t, golden)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("mismatch not caught: exit %d, result %+v\n%s", code, res, out)
	}
	if !strings.Contains(out, "Figure 8 table differs") {
		t.Errorf("report does not name the mismatch:\n%s", out)
	}
}

func TestResultLineNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list  []struct{ Name, Unit string }
		units map[string]string
	}{{spec.EndToEnd, e2eUnits}, {spec.PerLayer, layerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code reports %d", len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s (%s): the code reports unit %q", m.Name, m.Unit, u)
			}
		}
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		data, err := json.Marshal(resultSet{Fingerprint: fp, Runs: map[string][]result{}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fp := hostFingerprint()
	other := fp
	other.NumCPU++
	var out, errOut bytes.Buffer
	if code := runCompare([]string{write("a.json", fp), write("b.json", other)}, &out, &errOut); code == 0 {
		t.Fatalf("compared result sets from different hosts:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "fingerprints differ") {
		t.Errorf("refusal does not say why: %s", errOut.String())
	}
}

func TestCompareFlagsAnyIPCChange(t *testing.T) {
	runs := func(ipc ...float64) []result {
		var rs []result
		for _, v := range ipc {
			rs = append(rs, result{Metrics: map[string]metric{"ipc_hmean": {v, "IPC"}}})
		}
		return rs
	}
	bounds := map[string]float64{"ipc_hmean": 0.05}
	better := map[string]string{"ipc_hmean": "higher"}
	var out bytes.Buffer
	same := [2]resultSet{{Runs: map[string][]result{"w": runs(4, 2, 3)}}, {Runs: map[string][]result{"w": runs(4, 2, 3)}}}
	if !compareSets(&out, same, bounds, better) {
		t.Fatalf("identical IPC flagged:\n%s", out.String())
	}
	// A 0.1% drop at seed 2 is far inside the 5% bound, but IPC is exact.
	changed := [2]resultSet{same[0], {Runs: map[string][]result{"w": runs(4, 1.998, 3)}}}
	out.Reset()
	if compareSets(&out, changed, bounds, better) {
		t.Fatalf("IPC change at seed 2 passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "CHANGED at seed 2") {
		t.Errorf("report does not name the seed:\n%s", out.String())
	}
}

func TestHmeanIgnoresOrder(t *testing.T) {
	xs := []float64{4.217, 1.3, 2.9999, 0.7, 3.14159, 5.5, 2.2, 4.0001}
	want := hmean(xs)
	for i := 0; i < 20; i++ {
		rand.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
		if got := hmean(xs); got != want {
			t.Fatalf("hmean of a reordering = %v, want %v bit for bit", got, want)
		}
	}
}
