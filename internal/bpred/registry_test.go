package bpred

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/registry"
)

func TestRegistryBuiltinsRegistered(t *testing.T) {
	for _, want := range []string{"gshare", "bimodal", "static", "oracle", "local", "combining", "tage"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("built-in kind %q not registered", want)
		}
	}
}

// TestRegisterRejectsBadEntries covers what Register checks beyond the
// generic registry contract (internal/registry): a factory is required and
// the schema is validated before the kind is added.
func TestRegisterRejectsBadEntries(t *testing.T) {
	factory := func(Params, Env) (Predictor, error) { return Null{}, nil }
	cases := []struct {
		name  string
		e     Entry
		field string
	}{
		{"nil factory", Entry{Kind: "reg-test-nilfactory"}, "New"},
		{"bad schema", Entry{Kind: "reg-test-badschema", New: factory,
			Params: []registry.Param{{Name: "x", Min: 2, Max: 1}}}, "Params"},
		{"duplicate kind", Entry{Kind: " GSHARE ", New: factory}, "Kind"},
	}
	for _, tc := range cases {
		var re *registry.Error
		if err := Register(tc.e); !errors.As(err, &re) || re.Field != tc.field {
			t.Errorf("%s: want *registry.Error on %s, got %v", tc.name, tc.field, err)
		}
	}
	for _, k := range Kinds() {
		if strings.HasPrefix(k, "reg-test-") {
			t.Errorf("rejected registration leaked into the registry: %q", k)
		}
	}
}

// TestNormalizeParamsContract pins how bpred resolves parameters through
// the shared schema: errors are *registry.Error values whose Field is the
// bare parameter name (the pipeline prefixes "Predictor."), and the
// built-in schemas normalize as the wire format expects.
func TestNormalizeParamsContract(t *testing.T) {
	_, err := NormalizeParams("gshare", Params{"tables": 4})
	var re *registry.Error
	if !errors.As(err, &re) || re.Field != "tables" || re.Kind != "gshare" {
		t.Fatalf("unknown param: got %v", err)
	}

	// Unknown kind lists the registered spellings.
	_, err = NormalizeParams("nonesuch", nil)
	if !errors.As(err, &re) || re.Field != "Kind" || !strings.Contains(err.Error(), "gshare") {
		t.Fatalf("unknown kind error should enumerate kinds, got %v", err)
	}

	// A schema-free kind normalizes to nil.
	out, err := NormalizeParams("oracle", nil)
	if err != nil || out != nil {
		t.Fatalf("oracle normalize = %v, %v; want nil, nil", out, err)
	}

	// tage defaults fill the complete schema.
	out, err = NormalizeParams("tage", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"base_bits", "tables", "idx_bits", "tag_bits", "min_hist", "max_hist"} {
		if _, ok := out[name]; !ok {
			t.Errorf("tage default normalization missing %q: %v", name, out)
		}
	}
}

func TestBuildConstructsEveryBuiltin(t *testing.T) {
	env := Env{TargetOf: func(pc int) int { return pc + 1 }}
	for _, kind := range Kinds() {
		e, _ := Lookup(kind)
		// Satisfy required parameters with a mid-range value so the loop
		// stays schema-driven as new kinds are registered.
		params := Params{}
		for _, ps := range e.Params {
			if ps.Required {
				params[ps.Name] = (ps.Min + ps.Max) / 2
			}
		}
		p, err := Build(kind, params, env)
		if err != nil {
			t.Errorf("Build(%q): %v", kind, err)
			continue
		}
		// The predictor must be callable and its accounting must agree
		// with the registry's params-only accounting.
		p.Predict(1, 0)
		p.Update(1, 0, true)
		want, err := StateBytes(kind, params)
		if err != nil {
			t.Errorf("StateBytes(%q): %v", kind, err)
			continue
		}
		if got := p.StateBytes(); got != want {
			t.Errorf("%q: constructed StateBytes %d != registry %d", kind, got, want)
		}
	}
}

func TestBuildRequiredParamPropagates(t *testing.T) {
	if _, err := Build("gshare", nil, Env{}); err == nil {
		t.Fatal("gshare without hist_bits must fail")
	}
	p, err := Build("gshare", Params{"hist_bits": 8}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := StateBytes("gshare", Params{"hist_bits": 8})
	if err != nil || p.StateBytes() != want {
		t.Fatalf("gshare accounting: built %d, registry %d (err %v)", p.StateBytes(), want, err)
	}
}

func TestStaticRequiresTargetResolver(t *testing.T) {
	if _, err := Build("static", nil, Env{}); err == nil {
		t.Fatal("static predictor without Env.TargetOf must fail")
	}
	if _, err := Build("static", nil, Env{TargetOf: func(pc int) int { return 0 }}); err != nil {
		t.Fatal(err)
	}
}
