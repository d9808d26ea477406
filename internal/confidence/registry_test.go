package confidence

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/registry"
)

func TestConfRegistryBuiltins(t *testing.T) {
	for _, want := range []string{"jrs", "adaptive", "oracle", "always-high", "always-low"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("built-in kind %q not registered", want)
		}
	}
}

// TestConfRegisterRejectsBadEntries covers what Register checks beyond
// the generic registry contract (internal/registry): both a factory and a
// normalizer are required, since Normalize runs on every config
// validation.
func TestConfRegisterRejectsBadEntries(t *testing.T) {
	factory := func(Spec) (Estimator, error) { return AlwaysHigh{}, nil }
	norm := func(s Spec) (Spec, error) { return s, nil }
	cases := []struct {
		name  string
		e     Entry
		field string
	}{
		{"nil factory", Entry{Kind: "conf-test-nilfactory", Normalize: norm}, "New"},
		{"nil normalizer", Entry{Kind: "conf-test-nilnorm", New: factory}, "Normalize"},
		{"case-folded duplicate", Entry{Kind: " JRS ", Normalize: norm, New: factory}, "Kind"},
	}
	for _, tc := range cases {
		var re *registry.Error
		if err := Register(tc.e); !errors.As(err, &re) || re.Field != tc.field {
			t.Errorf("%s: want *registry.Error on %s, got %v", tc.name, tc.field, err)
		}
	}
	if _, ok := Lookup("conf-test-nilnorm"); ok {
		t.Error("an entry without a normalizer was registered")
	}
}

func TestConfNormalizeCanonicalizesDegenerateKinds(t *testing.T) {
	// Inert sizing on a stateless kind is canonicalized away entirely, so
	// two spellings of "always-high" are one spec (and one canonical hash
	// upstream).
	a, err := Normalize(Spec{Kind: "always-high", IndexBits: 11, CtrBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize(Spec{Kind: "ALWAYS-HIGH", Threshold: 3, EnhancedIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, Spec{Kind: "always-high"}) {
		t.Errorf("degenerate normalization not canonical: %+v vs %+v", a, b)
	}
}

func TestConfNormalizeJRSBounds(t *testing.T) {
	cases := []struct {
		field string
		spec  Spec
	}{
		{"IndexBits", Spec{Kind: "jrs", IndexBits: 0, CtrBits: 1}},
		{"IndexBits", Spec{Kind: "jrs", IndexBits: 29, CtrBits: 1}},
		{"CtrBits", Spec{Kind: "jrs", IndexBits: 11, CtrBits: 9}},
		{"Threshold", Spec{Kind: "jrs", IndexBits: 11, CtrBits: 2, Threshold: 4}},
		{"Params.x", Spec{Kind: "jrs", IndexBits: 11, CtrBits: 1, Params: map[string]int{"x": 1}}},
		{"AdaptiveMinPVN", Spec{Kind: "adaptive", IndexBits: 11, CtrBits: 1, AdaptiveMinPVN: 1.0}},
		{"AdaptiveWindow", Spec{Kind: "adaptive", IndexBits: 11, CtrBits: 1, AdaptiveWindow: 3}},
	}
	for _, tc := range cases {
		_, err := Normalize(tc.spec)
		var re *registry.Error
		if !errors.As(err, &re) || re.Field != tc.field {
			t.Errorf("spec %+v: want *registry.Error on %s, got %v", tc.spec, tc.field, err)
		}
	}
}

func TestConfNormalizeFillsAdaptiveDefaults(t *testing.T) {
	ns, err := Normalize(Spec{Kind: "adaptive", IndexBits: 11, CtrBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ns.AdaptiveMinPVN != 0.30 || ns.AdaptiveWindow != 256 {
		t.Errorf("adaptive defaults not filled: %+v", ns)
	}
	// JRS zeroes the adaptive fields it does not use.
	ns, err = Normalize(Spec{Kind: "jrs", IndexBits: 11, CtrBits: 1, AdaptiveMinPVN: 0.9, AdaptiveWindow: 512})
	if err != nil {
		t.Fatal(err)
	}
	if ns.AdaptiveMinPVN != 0 || ns.AdaptiveWindow != 0 {
		t.Errorf("jrs must canonicalize inert adaptive fields: %+v", ns)
	}
}

func TestConfNormalizeUnknownKindListsRegistry(t *testing.T) {
	_, err := Normalize(Spec{Kind: "grapefruit"})
	if err == nil || !strings.Contains(err.Error(), "jrs") || !strings.Contains(err.Error(), "always-low") {
		t.Fatalf("unknown kind error should enumerate kinds, got %v", err)
	}
}

func TestConfBuildEveryBuiltin(t *testing.T) {
	for _, kind := range Kinds() {
		est, err := Build(Spec{Kind: Kind(kind), IndexBits: 8, CtrBits: 2})
		if err != nil {
			t.Errorf("Build(%q): %v", kind, err)
			continue
		}
		est.Estimate(1, 0, true, Hint{})
		est.Update(1, 0, true, true)
	}
}
