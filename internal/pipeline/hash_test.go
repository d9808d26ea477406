package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// TestCanonicalHashIsSHA256OfV2: polypath/v2 is the one encoding that is
// hashed. Over the golden corpus and every named model, CanonicalHash is
// the hex SHA-256 of EncodeConfigV2.
func TestCanonicalHashIsSHA256OfV2(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct {
		Name string          `json:"name"`
		Doc  json.RawMessage `json:"doc"`
	}
	if err := json.Unmarshal(blob, &corpus); err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]pipeline.Config{}
	for _, e := range corpus {
		cfg, err := pipeline.DecodeConfig(e.Doc)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		cfgs["golden/"+e.Name] = cfg
	}
	for _, name := range core.ModelNames() {
		cfg, err := core.ModelConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs["model/"+name] = cfg
	}
	for name, cfg := range cfgs {
		v2, err := pipeline.EncodeConfigV2(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(v2)
		h, err := pipeline.CanonicalHash(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := hex.EncodeToString(sum[:]); h != want {
			t.Errorf("%s: CanonicalHash = %s, want sha256(EncodeConfigV2) = %s", name, h, want)
		}
	}
}
