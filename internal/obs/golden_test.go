package obs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// The export golden runs one short fixed cell, perl at goldenInsts
// instructions, under see and under dualpath, and pins the SHA-256 of
// its three renderings: the Chrome trace, the Konata log and the
// PipeTrace timeline of the first goldenInsts fetched instructions. At
// this length every event note already appears under see
// (TestTraceExportGolden asserts it), so a change to any note's text or
// to any event's fields moves a digest.
const (
	goldenBench = "perl"
	goldenInsts = 3_000
	goldenRing  = 1 << 16
)

// goldenGenerator replaces the Chrome trace's otherData.generator before
// hashing: the real value embeds Version(), which names the Go toolchain.
const goldenGenerator = "polypath obs (golden)"

var exportDigests = map[string]string{
	"perl-see.json":          "ad982f3fd3592d0bc0c949cf8d522493c0d16e2d151a88d18661b748b8fcea3a",
	"perl-see.kanata":        "8db5deb1b4ffcf750f747030e95e0d42fb6f199d63472b5a64740158f03e9ec8",
	"perl-see.timeline":      "161480f762bbfe4c3eca4636a17128888ffd5246d34cbb190b923994d209f0c8",
	"perl-dualpath.json":     "f39b00494d2e5a6c9d71aaa62c892d1867dd8f59c1d079c4b61797a1485ac8cf",
	"perl-dualpath.kanata":   "32e9c7197078286c2856a64fea6ccaa098f2f0714bbe0af78af53985fbce6215",
	"perl-dualpath.timeline": "ba54b53db7b9df98503d9b999dc907e12a52fa764506f1b2356763e548be5ae8",
}

// TestTraceExportGolden checks the exporters end to end on a real cell:
// each export matches its pinned digest, the Chrome trace is well formed
// for Perfetto, the Konata log has its header and retire records, and
// every note variant the simulator can write appears.
func TestTraceExportGolden(t *testing.T) {
	bm, err := workload.ByName(goldenBench, goldenInsts)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"see", "dualpath"} {
		t.Run(model, func(t *testing.T) {
			chrome, konata, timeline := goldenExports(t, prog, model)
			name := goldenBench + "-" + model
			checkDigest(t, name+".json", chrome)
			checkDigest(t, name+".kanata", konata)
			checkDigest(t, name+".timeline", timeline)

			notes := checkChromeTrace(t, chrome)
			checkKonata(t, konata)
			if model == "see" {
				checkNoteVariants(t, notes)
			}
		})
	}
}

// goldenExports runs the golden cell under model with a PipeTrace and a
// Ring attached, as polysim -timeline and -trace do, and renders the
// three exports.
func goldenExports(t *testing.T, prog *isa.Program, model string) (chrome, konata, timeline []byte) {
	t.Helper()
	cfg, err := core.ModelConfig(model)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := pipeline.NewPipeTrace(goldenInsts)
	ring := NewRing(goldenRing)
	m.SetTracer(Tee(pt, ring))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("the %d-event ring dropped %d events; the golden needs the whole stream", ring.Cap(), ring.Dropped())
	}
	events := ring.Snapshot()

	var c, k, tl bytes.Buffer
	if err := WriteChromeTrace(&c, []CellTrace{{Label: goldenBench + "/" + model, Events: events}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteKonata(&k, events); err != nil {
		t.Fatal(err)
	}
	if err := pt.Render(&tl); err != nil {
		t.Fatal(err)
	}
	gen, _ := json.Marshal("polypath obs " + Version())
	fixed, _ := json.Marshal(goldenGenerator)
	if !bytes.Contains(c.Bytes(), gen) {
		t.Fatalf("Chrome trace has no generator %s", gen)
	}
	return bytes.Replace(c.Bytes(), gen, fixed, 1), k.Bytes(), tl.Bytes()
}

// checkDigest compares data's SHA-256 with the pinned one. On a
// mismatch it keeps the export in a directory that outlives the test
// (t.TempDir is removed when the test ends) and names the file.
func checkDigest(t *testing.T, name string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if want := exportDigests[name]; got != want {
		dir, err := os.MkdirTemp("", "trace-golden-")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s: sha256 %s, want %s (export written to %s)", name, got, want, path)
	}
}

// checkChromeTrace checks what Perfetto and chrome://tracing need: the
// JSON is well formed, every event has name, ph, ts, pid and tid, and
// complete (X) events never go back in time within a process. It also
// requires fetch and commit events, and returns each event kind's set
// of notes.
func checkChromeTrace(t *testing.T, data []byte) map[string]map[string]bool {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	notes := map[string]map[string]bool{}
	lastTs := map[float64]float64{}
	for i, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d has no %q: %v", i, key, e)
			}
		}
		if e["ph"] != "X" {
			continue
		}
		pid, ts := e["pid"].(float64), e["ts"].(float64)
		if ts < lastTs[pid] {
			t.Fatalf("event %d: pid %v ts %v after %v", i, pid, ts, lastTs[pid])
		}
		lastTs[pid] = ts
		name := e["name"].(string)
		if notes[name] == nil {
			notes[name] = map[string]bool{}
		}
		note, _ := e["args"].(map[string]any)["note"].(string)
		notes[name][note] = true
	}
	for _, kind := range []string{"fetch", "commit"} {
		if len(notes[kind]) == 0 {
			t.Errorf("Chrome trace has no %s events", kind)
		}
	}
	return notes
}

// checkKonata checks the Konata log's header and that instructions
// retire.
func checkKonata(t *testing.T, data []byte) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() || sc.Text() != "Kanata\t0004" {
		t.Fatalf("Konata header %q, want %q", sc.Text(), "Kanata\t0004")
	}
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "R\t") {
			return
		}
	}
	t.Error("Konata log has no retire (R) records")
}

// checkNoteVariants asserts that every kind of note text appears, so a
// shorter golden run cannot drop one unnoticed.
func checkNoteVariants(t *testing.T, notes map[string]map[string]bool) {
	t.Helper()
	classes := map[string]bool{}
	for c := 0; c < isa.NumFUClasses; c++ {
		classes[isa.FUClass(c).String()] = true
	}
	for note := range notes["issue"] {
		if !classes[note] {
			t.Errorf("issue note %q is not an FU class", note)
		}
	}
	hasPrefix := func(kind, prefix string) bool {
		for note := range notes[kind] {
			if strings.HasPrefix(note, prefix) {
				return true
			}
		}
		return false
	}
	for _, v := range []struct{ kind, prefix string }{
		{"fetch", "load  r"},
		{"issue", "mem"},
		{"diverge", "divergence at history position "},
		{"resolve", "correct"},
		{"resolve", "mispredicted"},
		{"resolve", "divergence resolved (taken=true)"},
		{"resolve", "divergence resolved (taken=false)"},
		{"resolve", "indirect target correct"},
		{"resolve", "indirect target mispredicted -> "},
		{"recover", "checkpoint restore + fetch redirect"},
	} {
		if !hasPrefix(v.kind, v.prefix) {
			t.Errorf("no %s event has a note starting %q", v.kind, v.prefix)
		}
	}
}
