package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenEntry is one committed polypath/v1 document plus the canonical
// hash the retired v1 encoder gave it. The corpus in
// testdata/golden_v1.json was generated by the pre-registry encoder and is
// frozen: it is the fixture that keeps the read-only v1 decoder honest.
type goldenEntry struct {
	Name string          `json:"name"`
	Hash string          `json:"hash"`
	Doc  json.RawMessage `json:"doc"`
}

func loadGolden(t testing.TB) []goldenEntry {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(blob, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) < 30 {
		t.Fatalf("golden corpus suspiciously small: %d entries", len(entries))
	}
	return entries
}

// v1Doc spells a config as a polypath/v1 document, the inverse of the v1
// decoder's lift: its v2 encoding under the v1 schema, with hist_bits
// moved out of the predictor params. It fails the test when the config
// carries anything v1 cannot express (other predictor params, confidence
// params, a policy), so v1Doc(c) equal to a document proves the v2
// encoding of c carries every field of that document.
func v1Doc(t testing.TB, c Config) []byte {
	t.Helper()
	v2, err := EncodeConfigV2(c)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(v2, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["policy"]; ok {
		t.Fatalf("policy is not expressible in %s: %s", SchemaV1, v2)
	}
	if _, ok := m["confidence"].(map[string]any)["params"]; ok {
		t.Fatalf("confidence params are not expressible in %s: %s", SchemaV1, v2)
	}
	pred := m["predictor"].(map[string]any)
	params, _ := pred["params"].(map[string]any)
	hist, ok := params["hist_bits"]
	if !ok {
		hist = 0
	}
	if len(params) > 1 || (len(params) == 1 && !ok) {
		t.Fatalf("predictor params other than hist_bits are not expressible in %s: %s", SchemaV1, v2)
	}
	m["schema"] = SchemaV1
	m["predictor"] = map[string]any{"kind": pred["kind"], "hist_bits": hist}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// canonicalJSON re-marshals a document through a generic value, so two
// documents compare equal exactly when they hold the same fields and
// values, whatever their key order.
func canonicalJSON(t testing.TB, doc []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestGoldenV1HashesPreserved pins the integrity of the frozen corpus:
// each document is the exact canonical polypath/v1 byte stream behind its
// recorded hash. The recorded hashes are not CanonicalHash values (that
// hashes canonical v2); they prove the documents were not edited.
func TestGoldenV1HashesPreserved(t *testing.T) {
	for _, e := range loadGolden(t) {
		t.Run(e.Name, func(t *testing.T) {
			var compact bytes.Buffer
			if err := json.Compact(&compact, e.Doc); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(compact.Bytes())
			if got := hex.EncodeToString(sum[:]); got != e.Hash {
				t.Errorf("document is not the v1 byte stream behind its recorded hash\n got %s\nwant %s", got, e.Hash)
			}
		})
	}
}

// TestGoldenV1ReencodesIdentically: every committed polypath/v1 document
// decodes to the machine it describes. Its v2 encoding carries every v1
// field unchanged, with hist_bits moved into the predictor params.
func TestGoldenV1ReencodesIdentically(t *testing.T) {
	for _, e := range loadGolden(t) {
		t.Run(e.Name, func(t *testing.T) {
			cfg, err := DecodeConfig(e.Doc)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonicalJSON(t, v1Doc(t, cfg)), canonicalJSON(t, e.Doc); got != want {
				t.Errorf("decoded config is not the documented machine\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestGoldenV2RoundTrip: every golden config also encodes as polypath/v2,
// and the v2 encoding is a fixed point — encode → decode → encode is
// byte-identical canonical JSON, and the decoded config is the same
// machine (same canonical hash).
func TestGoldenV2RoundTrip(t *testing.T) {
	for _, e := range loadGolden(t) {
		t.Run(e.Name, func(t *testing.T) {
			cfg, err := DecodeConfig(e.Doc)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := EncodeConfigV2(cfg)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeConfig(v2)
			if err != nil {
				t.Fatalf("decode of v2 encoding: %v", err)
			}
			v2again, err := EncodeConfigV2(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2, v2again) {
				t.Errorf("v2 encoding is not a fixed point\n 1st %s\n 2nd %s", v2, v2again)
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
				t.Errorf("v2 round trip changed the canonical hash: %s vs %s", h1, h2)
			}
		})
	}
}

// TestV2OnlyConfigsRejectV1Encoding: a config using a post-v1 kind (tage)
// has no v1 spelling — a v1 document naming the kind is refused — and its
// canonical hash is the one it had before the v1 write path was retired.
func TestV2OnlyConfigsRejectV1Encoding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = PredictorSpec{Kind: PredTage, Params: map[string]int{"base_bits": 10}}
	const want = "4da4c9349ade32e9943b8ce1a9d37eb33025e807ada0615b43697692e333c23b"
	if h, err := CanonicalHash(cfg); err != nil || h != want {
		t.Fatalf("tage canonical hash = %q, %v; want %s", h, err, want)
	}
	v2, err := EncodeConfigV2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeConfig(v2)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := CanonicalHash(back); h != want {
		t.Fatalf("v2 round trip changed the tage hash: %s", h)
	}
	v1 := bytes.Replace(v1Doc(t, DefaultConfig()), []byte(`"kind":"gshare"`), []byte(`"kind":"tage"`), 1)
	_, err = DecodeConfig(v1)
	requireConfigError(t, err, "Predictor.Kind")
}
