package harness

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// committedTables are the experiments_output.txt sections regenerated in
// tier-1: all but the Figure 9-12 sweeps and the ext-* studies, which
// only `make experiments-check` regenerates.
var committedTables = []string{
	"table1", "fig8", "fig8-char", "paths",
	"abl-jrswidth", "abl-ceindex", "abl-spechistory", "abl-adaptive", "abl-fetchpolicy",
	"abl-eagerness", "abl-predictors", "abl-resbuses", "abl-mrc",
	"fig-adaptive",
}

// sectionHeader matches an experiments_output.txt header; its (N.Ns)
// wall-clock suffix is ignored, as in `make experiments-check`.
var sectionHeader = regexp.MustCompile(`(?m)^=== (\S+) \([0-9.]+s\) ===\n`)

// TestCommittedTables regenerates the committed tables and diffs each
// byte for byte: the 400k sections of experiments_output.txt, and the
// scripts/golden tables at their own lengths. On the fig-adaptive golden
// run it also gates adaptation: the online controller beats every static
// policy and reaches 90% of the per-epoch oracle.
func TestCommittedTables(t *testing.T) {
	if raceEnabled {
		t.Skip("the 400k tables take minutes under the race detector")
	}
	data, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	text, sections := string(data), map[string]string{}
	bodies := sectionHeader.Split(text, -1)[1:]
	for i, m := range sectionHeader.FindAllStringSubmatch(text, -1) {
		// The body runs up to the blank line that closes the section.
		sections[m[1]] = strings.TrimSuffix(bodies[i], "\n")
	}
	opts := Options{TargetInsts: 400_000, Memo: NewLRU[MemoValue](4096)}
	for _, name := range committedTables {
		t.Run(name, func(t *testing.T) {
			r, err := RunExperiment(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			diffTable(t, "experiments_output.txt section "+name, sections[name], r.Render(),
				"go run ./cmd/experiments -exp all -insts 400000 > experiments_output.txt")
		})
	}

	t.Run("adaptive_smoke_150k", func(t *testing.T) {
		res, err := Adaptive(Options{TargetInsts: 150_000, Benchmarks: []string{"m88ksim-phased"}})
		if err != nil {
			t.Fatal(err)
		}
		diffGolden(t, "adaptive_smoke_150k.txt", res.Render()+"\n",
			"go run ./cmd/experiments -exp fig-adaptive -bench m88ksim-phased -insts 150000 | sed 1d")
		for _, row := range res.Rows {
			for i, ipc := range row.StaticIPC {
				if row.OnlineIPC <= ipc {
					t.Errorf("%s: online IPC %v does not beat static/%s %v", row.Benchmark, row.OnlineIPC, res.CandidateNames[i], ipc)
				}
			}
			if row.OnlineIPC < 0.9*row.OracleIPC {
				t.Errorf("%s: online IPC %v is below 90%% of the oracle's %v", row.Benchmark, row.OnlineIPC, row.OracleIPC)
			}
		}
	})
	t.Run("fig8_char_300k", func(t *testing.T) {
		res, err := CharTable(Options{TargetInsts: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		diffGolden(t, "fig8_char_300k.txt", res.Render(), "go run ./cmd/experiments -exp fig8-char -insts 300000 | sed '1d;$d'")
	})
	// Auditing is observation-only, so both levels render the golden. No
	// memo here: a hit would skip the audited run.
	for _, level := range []pipeline.AuditLevel{pipeline.AuditOff, pipeline.AuditCommit} {
		t.Run("table1_compress_50k/audit="+level.String(), func(t *testing.T) {
			res, err := Table1(Options{TargetInsts: 50_000, Benchmarks: []string{"compress"}, Audit: level})
			if err != nil {
				t.Fatal(err)
			}
			diffGolden(t, "table1_compress_50k.txt", res.Render(),
				"go run ./cmd/experiments -exp table1 -bench compress -insts 50000 | sed '1d;$d'")
		})
	}
}

// diffGolden diffs got against scripts/golden/file; regen is the command
// whose output is that file.
func diffGolden(t *testing.T, file, got, regen string) {
	t.Helper()
	want, err := os.ReadFile("../../scripts/golden/" + file)
	if err != nil {
		t.Fatal(err)
	}
	diffTable(t, "scripts/golden/"+file, string(want), got, regen+" > scripts/golden/"+file)
}

// diffTable reports the first line where got departs from the committed
// table want, and the command that regenerates it.
func diffTable(t *testing.T, name, want, got, regen string) {
	t.Helper()
	if got == want {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	w, g = append(w, "(end of table)"), append(g, "(end of table)")
	t.Errorf("%s: line %d differs\n want %q\n  got %q\nregenerate with: %s", name, i+1, w[i], g[i], regen)
}
