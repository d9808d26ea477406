package pipeline

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/registry"
)

// toyPredictor is a deliberately silly predictor defined OUTSIDE
// internal/bpred: it predicts taken whenever its single counter of the last
// "stride" outcomes is majority-taken. It exists to prove the acceptance
// criterion of the registry redesign — a new predictor plugs in through
// bpred.Register alone, with no edits to the pipeline, wire format, or
// CLIs.
type toyPredictor struct {
	window uint64
	stride int
}

func (p *toyPredictor) Predict(pc int, hist uint64) bool {
	ones := 0
	for i := 0; i < p.stride; i++ {
		if p.window>>uint(i)&1 == 1 {
			ones++
		}
	}
	return ones*2 >= p.stride
}

func (p *toyPredictor) Update(pc int, hist uint64, taken bool) {
	p.window <<= 1
	if taken {
		p.window |= 1
	}
}

func (p *toyPredictor) StateBytes() int { return (p.stride + 7) / 8 }
func (p *toyPredictor) Reset()          { p.window = 0 }

var registerToyOnce sync.Once

func registerToy(t *testing.T) {
	t.Helper()
	registerToyOnce.Do(func() {
		err := bpred.Register(bpred.Entry{
			Kind: "toy-majority",
			Doc:  "test-only majority-vote predictor",
			Params: []registry.Param{
				{Name: "stride", Doc: "votes in the majority window", Min: 1, Max: 64, Default: 8},
			},
			New: func(p bpred.Params, _ bpred.Env) (bpred.Predictor, error) {
				return &toyPredictor{stride: p.Get("stride", 8)}, nil
			},
			StateBytes: func(p bpred.Params) int { return (p.Get("stride", 8) + 7) / 8 },
		})
		if err != nil {
			t.Fatalf("runtime registration failed: %v", err)
		}
	})
}

// TestRuntimeRegisteredPredictorRunsEndToEnd is the tentpole acceptance
// test: a predictor kind registered at runtime from outside internal/bpred
// is immediately usable everywhere — config validation, kind parsing, the
// polypath/v2 wire format, canonical hashing, and a full simulation run.
func TestRuntimeRegisteredPredictorRunsEndToEnd(t *testing.T) {
	registerToy(t)

	cfg, err := NewConfigFrom(DefaultConfig(), func(c *Config) {
		c.Predictor = PredictorSpec{Kind: "toy-majority", Params: map[string]int{"stride": 4}}
	})
	if err != nil {
		t.Fatal(err)
	}

	// The parser sees it.
	if k, err := ParsePredictorKind("Toy-Majority"); err != nil || k != "toy-majority" {
		t.Fatalf("ParsePredictorKind: %v, %v", k, err)
	}

	// The wire format carries it (as polypath/v2; a frozen v1 document
	// naming it is refused).
	blob, err := EncodeConfigV2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"toy-majority"`) {
		t.Fatalf("v2 encoding lost the kind: %s", blob)
	}
	back, err := DecodeConfig(blob)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(v1Doc(t, DefaultConfig()), []byte(`"kind":"gshare"`), []byte(`"kind":"toy-majority"`), 1)
	if _, err := DecodeConfig(v1); err == nil {
		t.Error("runtime kind must not be accepted in a frozen polypath/v1 document")
	}
	h1, err := CanonicalHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := CanonicalHash(back)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("wire round trip changed the hash: %s vs %s", h1, h2)
	}

	// And it simulates: a full machine runs and commits with the toy
	// predictor making real predictions.
	m, err := New(diamondProgram(2000, 0.7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Committed == 0 || m.Stats.CondBranches == 0 {
		t.Fatalf("toy-predictor machine made no progress: %+v", m.Stats)
	}
	// Majority-vote over a 70%-taken branch stream must beat never-taken
	// (i.e. it actually predicts; exact accuracy is not the point).
	if m.Stats.Mispredicts >= m.Stats.CondBranches {
		t.Errorf("toy predictor never predicted correctly: %d mispredicts / %d branches",
			m.Stats.Mispredicts, m.Stats.CondBranches)
	}
}

// TestRuntimeKindParamValidation: schema enforcement applies to runtime
// kinds exactly as to built-ins.
func TestRuntimeKindParamValidation(t *testing.T) {
	registerToy(t)
	_, err := NewConfigFrom(DefaultConfig(), func(c *Config) {
		c.Predictor = PredictorSpec{Kind: "toy-majority", Params: map[string]int{"stride": 100}}
	})
	requireConfigError(t, err, "Predictor.stride")
}
