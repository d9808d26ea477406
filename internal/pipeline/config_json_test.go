package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
)

func TestEncodeConfigV2CarriesSchema(t *testing.T) {
	blob, err := EncodeConfigV2(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != SchemaV2 {
		t.Fatalf("schema = %v, want %q", m["schema"], SchemaV2)
	}
}

// TestConfigV1RoundTrip decodes the polypath/v1 spelling of a spread of
// configurations and requires the normalized forms (and the canonical
// hashes) to be identical to those of the configs themselves.
func TestConfigV1RoundTrip(t *testing.T) {
	cfgs := []Config{DefaultConfig()}
	c := DefaultConfig()
	c.Mode = Monopath
	c.Confidence.Kind = ConfAlwaysHigh
	cfgs = append(cfgs, c)
	c = DefaultConfig()
	c.Predictor = PredictorSpec{Kind: PredCombining, Params: map[string]int{"hist_bits": 9}}
	c.Confidence = ConfidenceSpec{Kind: ConfAdaptive, IndexBits: 9, CtrBits: 4, Threshold: 8, EnhancedIndex: true}
	c.MaxDivergences = 1
	c.ResolutionBuses = 2
	c.NonSpeculativeHistory = true
	c.MaxInsts = 123456
	cfgs = append(cfgs, c)

	for i, cfg := range cfgs {
		back, err := DecodeConfig(v1Doc(t, cfg))
		if err != nil {
			t.Fatalf("cfg %d: decode: %v", i, err)
		}
		want, err := cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cfg %d: round-trip changed the normalized config\n got %+v\nwant %+v", i, got, want)
		}
		h1, _ := CanonicalHash(cfg)
		h2, _ := CanonicalHash(back)
		if h1 == "" || h1 != h2 {
			t.Errorf("cfg %d: canonical hash not stable across a v1 round trip: %q vs %q", i, h1, h2)
		}
	}
}

func TestDecodeConfigV1RejectsUnknownFields(t *testing.T) {
	bad := bytes.Replace(v1Doc(t, DefaultConfig()), []byte(`"mode"`), []byte(`"widow_size":9,"mode"`), 1)
	_, err := DecodeConfig(bad)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConfigError, got %T (%v)", err, err)
	}
	if !strings.Contains(err.Error(), "widow_size") {
		t.Errorf("error should name the unknown field, got %q", err)
	}
}

// TestDecodeConfigV1RejectsWrongSchema: a v1 body under any other schema
// is refused — v2 because the v1 predictor spelling is not a v2 field.
func TestDecodeConfigV1RejectsWrongSchema(t *testing.T) {
	for _, schema := range []string{`"polypath/v2"`, `"polypath/v3"`, `""`} {
		bad := bytes.Replace(v1Doc(t, DefaultConfig()), []byte(`"`+SchemaV1+`"`), []byte(schema), 1)
		_, err := DecodeConfig(bad)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("schema %s: want *ConfigError, got %T (%v)", schema, err, err)
		}
	}
}

func TestDecodeConfigV1RejectsInvalidMachine(t *testing.T) {
	bad := bytes.Replace(v1Doc(t, DefaultConfig()), []byte(`"fetch_width":8`), []byte(`"fetch_width":0`), 1)
	if !bytes.Contains(bad, []byte(`"fetch_width":0`)) {
		t.Fatal("test fixture: substitution failed")
	}
	_, err := DecodeConfig(bad)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("invalid machine must yield *ConfigError, got %T (%v)", err, err)
	}
}

// TestDecodeConfigV1RejectsPostV1Content: the read-only v1 decoder refuses
// everything the frozen schema could not express, and any data after the
// document, each with a *ConfigError naming the offending field.
func TestDecodeConfigV1RejectsPostV1Content(t *testing.T) {
	doc := v1Doc(t, DefaultConfig())
	withField := func(field string) []byte {
		return bytes.Replace(doc, []byte(`"mode"`), []byte(field+`,"mode"`), 1)
	}
	cases := []struct {
		name  string
		doc   []byte
		field string
	}{
		{"post-v1 predictor kind", bytes.Replace(doc, []byte(`"kind":"gshare"`), []byte(`"kind":"tage"`), 1), "Predictor.Kind"},
		{"predictor params", bytes.Replace(doc, []byte(`"hist_bits":11`), []byte(`"hist_bits":11,"params":{"hist_bits":11}`), 1), "json"},
		{"confidence params", bytes.Replace(doc, []byte(`"kind":"jrs"`), []byte(`"kind":"jrs","params":{}`), 1), "json"},
		{"policy", withField(`"policy":{"kind":"static","epoch_cycles":4096}`), "Policy"},
		{"null policy", withField(`"policy":null`), "Policy"},
		{"unknown field", withField(`"window":64`), "json"},
		{"second document", append(append([]byte{}, doc...), doc...), "json"},
		{"trailing brace", append(append([]byte{}, doc...), '}'), "json"},
		{"trailing bracket", append(append([]byte{}, doc...), ']'), "json"},
		{"trailing junk", append(append([]byte{}, doc...), " junk"...), "json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if bytes.Equal(tc.doc, doc) {
				t.Fatal("test fixture: substitution failed")
			}
			_, err := DecodeConfig(tc.doc)
			requireConfigError(t, err, tc.field)
		})
	}
	if _, err := DecodeConfig(append(append([]byte{}, doc...), " \n\t"...)); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
}

// TestCanonicalHashNormalizationInvariance: two spellings of the same
// machine (derived defaults left implicit vs written out; inert sizing
// fields differing) must hash identically, and a real parameter change
// must change the hash.
func TestCanonicalHashNormalizationInvariance(t *testing.T) {
	a := DefaultConfig() // PhysRegs/Checkpoints implicit (0 = derived)
	b := DefaultConfig()
	b.PhysRegs = 32 + b.WindowSize + 64 // written out explicitly
	b.Checkpoints = b.WindowSize / 4
	ha, err := CanonicalHash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := CanonicalHash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Error("derived-default spelling changed the canonical hash")
	}

	// Inert confidence sizing under a degenerate estimator.
	c1 := DefaultConfig()
	c1.Confidence = ConfidenceSpec{Kind: ConfAlwaysHigh, IndexBits: 11}
	c2 := DefaultConfig()
	c2.Confidence = ConfidenceSpec{Kind: ConfAlwaysHigh, IndexBits: 14, CtrBits: 4}
	h1, _ := CanonicalHash(c1)
	h2, _ := CanonicalHash(c2)
	if h1 != h2 {
		t.Error("inert confidence sizing changed the canonical hash")
	}

	d := DefaultConfig()
	d.WindowSize = 128
	d.PhysRegs, d.Checkpoints = 0, 0
	hd, _ := CanonicalHash(d)
	if hd == ha {
		t.Error("window size change did not change the canonical hash")
	}
}

func TestCanonicalHashInvalidConfigErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.WindowSize = 0
	if _, err := CanonicalHash(bad); err == nil {
		t.Fatal("invalid config must not hash")
	}
}

// FuzzDecodeConfig: DecodeConfig is fed untrusted bytes by polyserve, so
// every input must either fail with a *ConfigError or decode to a config
// whose canonical v2 encoding is a fixed point of decode→encode with an
// unchanged CanonicalHash. It must never panic. The seeds are the golden
// v1 corpus, its v2 encodings and a policy-bearing v2 document.
func FuzzDecodeConfig(f *testing.F) {
	for _, e := range loadGolden(f) {
		f.Add([]byte(e.Doc))
		cfg, err := DecodeConfig(e.Doc)
		if err != nil {
			f.Fatal(err)
		}
		v2, err := EncodeConfigV2(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v2)
	}
	see, _ := policy.PresetSetting("see")
	withPolicy := DefaultConfig()
	withPolicy.Policy = PolicySpec{Kind: "online", EpochCycles: 1024, Candidates: []policy.Setting{see}}
	v2, err := EncodeConfigV2(withPolicy)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(data)
		if err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *ConfigError, got %T (%v)", err, err)
			}
			return
		}
		v2, err := EncodeConfigV2(cfg)
		if err != nil {
			t.Fatalf("decoded config does not encode: %v", err)
		}
		back, err := DecodeConfig(v2)
		if err != nil {
			t.Fatalf("v2 encoding does not decode: %v\n%s", err, v2)
		}
		v2again, err := EncodeConfigV2(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v2, v2again) {
			t.Fatalf("v2 encoding is not a fixed point\n 1st %s\n 2nd %s", v2, v2again)
		}
		h1, err1 := CanonicalHash(cfg)
		h2, err2 := CanonicalHash(back)
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("round trip changed the canonical hash: %q (%v) vs %q (%v)", h1, err1, h2, err2)
		}
	})
}
