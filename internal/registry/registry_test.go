package registry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type entry struct {
	Kind string
	N    int
}

func newTestRegistry(t *testing.T, kinds ...string) *Registry[entry] {
	t.Helper()
	r := New("widget", func(e *entry) *string { return &e.Kind })
	for _, k := range kinds {
		if err := r.Add(entry{Kind: k}); err != nil {
			t.Fatalf("Add(%q): %v", k, err)
		}
	}
	return r
}

func requireError(t *testing.T, err error, field string) *Error {
	t.Helper()
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("want *Error on %s, got %T (%v)", field, err, err)
	}
	if re.Field != field {
		t.Fatalf("error field = %q, want %q (%v)", re.Field, field, err)
	}
	return re
}

func TestAddRejects(t *testing.T) {
	cases := []struct {
		name, kind string
	}{
		{"empty kind", ""},
		{"blank kind", "   "},
		{"duplicate", "alpha"},
		{"case-folded duplicate", "  ALPHA "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRegistry(t, "alpha")
			requireError(t, r.Add(entry{Kind: tc.kind, N: 1}), "Kind")
			if e, _ := r.Lookup("alpha"); e.N != 0 {
				t.Error("a rejected Add replaced the registered entry")
			}
			if got := r.Kinds(); !reflect.DeepEqual(got, []string{"alpha"}) {
				t.Errorf("rejected entry leaked into Kinds: %v", got)
			}
		})
	}
}

func TestAddCanonicalizesKind(t *testing.T) {
	r := newTestRegistry(t, " Beta ")
	for _, spelling := range []string{"beta", "BETA", "  bEtA"} {
		e, ok := r.Lookup(spelling)
		if !ok || e.Kind != "beta" {
			t.Errorf("Lookup(%q) = %+v, %v; want the entry stored as \"beta\"", spelling, e, ok)
		}
	}
}

func TestKindsSortedAndUnknownListsThem(t *testing.T) {
	r := newTestRegistry(t, "gamma", "alpha", "beta")
	kinds := r.Kinds()
	if !reflect.DeepEqual(kinds, []string{"alpha", "beta", "gamma"}) {
		t.Fatalf("Kinds() = %v, want sorted", kinds)
	}
	if _, ok := r.Lookup("delta"); ok {
		t.Fatal("Lookup found an unregistered kind")
	}
	_, err := r.Get("delta")
	re := requireError(t, err, "Kind")
	if re.Kind != "delta" {
		t.Errorf("unknown-kind error names kind %q, want \"delta\"", re.Kind)
	}
	if !strings.Contains(re.Reason, "widget") || !strings.Contains(re.Reason, "alpha, beta, gamma") {
		t.Errorf("unknown-kind error should name the family and list the kinds, got %q", re.Reason)
	}
	if e, err := r.Get("BETA"); err != nil || e.Kind != "beta" {
		t.Errorf("Get(BETA) = %+v, %v", e, err)
	}
}

// TestConcurrentAddAndLookup: harness workers resolve kinds while
// registrations may still land; run under -race.
func TestConcurrentAddAndLookup(t *testing.T) {
	r := newTestRegistry(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(kind string) {
			defer wg.Done()
			if err := r.Add(entry{Kind: kind}); err != nil {
				t.Error(err)
			}
			if _, ok := r.Lookup(kind); !ok {
				t.Errorf("Lookup(%s) missed a completed Add", kind)
			}
			r.Kinds()
		}(fmt.Sprintf("k%d", i))
	}
	wg.Wait()
	if n := len(r.Kinds()); n != 8 {
		t.Fatalf("Kinds() has %d entries after 8 concurrent Adds", n)
	}
}

func TestCheckSchema(t *testing.T) {
	cases := []struct {
		name   string
		schema []Param
		ok     bool
	}{
		{"empty schema", nil, true},
		{"valid", []Param{{Name: "x", Min: 0, Max: 1}, {Name: "y", Min: 3, Max: 3, Required: true}}, true},
		{"empty name", []Param{{Name: "", Min: 0, Max: 1}}, false},
		{"duplicate name", []Param{{Name: "x", Min: 0, Max: 1}, {Name: "x", Min: 0, Max: 1}}, false},
		{"empty range", []Param{{Name: "x", Min: 2, Max: 1}}, false},
	}
	for _, tc := range cases {
		err := CheckSchema("k", tc.schema)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if re := requireError(t, err, "Params"); re.Kind != "k" {
			t.Errorf("%s: error names kind %q", tc.name, re.Kind)
		}
	}
}

func TestNormalizeParams(t *testing.T) {
	schema := []Param{
		{Name: "bits", Min: 2, Max: 28, Required: true},
		{Name: "ways", Min: 1, Max: 16, Default: 4},
	}
	cases := []struct {
		name   string
		schema []Param
		in     map[string]int
		want   map[string]int
		field  string // expected error field; empty = success
	}{
		{"defaults filled", schema, map[string]int{"bits": 10}, map[string]int{"bits": 10, "ways": 4}, ""},
		{"explicit kept", schema, map[string]int{"bits": 2, "ways": 16}, map[string]int{"bits": 2, "ways": 16}, ""},
		{"empty schema, no params", nil, nil, nil, ""},
		{"empty schema, empty map", nil, map[string]int{}, nil, ""},
		{"required missing", schema, nil, nil, "P.bits"},
		{"below range", schema, map[string]int{"bits": 1}, nil, "P.bits"},
		{"above range", schema, map[string]int{"bits": 10, "ways": 17}, nil, "P.ways"},
		{"unknown name", schema, map[string]int{"bits": 10, "tables": 4}, nil, "P.tables"},
		{"unknown name, empty schema", nil, map[string]int{"x": 1}, nil, "P.x"},
		{"lowest unknown reported", schema, map[string]int{"zz": 1, "aa": 1}, nil, "P.aa"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := NormalizeParams("k", tc.schema, tc.in, "P.")
			if tc.field != "" {
				if re := requireError(t, err, tc.field); re.Kind != "k" {
					t.Errorf("error names kind %q", re.Kind)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("NormalizeParams = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestNormalizeParamsUnknownListsAccepted(t *testing.T) {
	schema := []Param{{Name: "ways", Min: 1, Max: 2, Default: 1}, {Name: "bits", Min: 1, Max: 2, Default: 1}}
	_, err := NormalizeParams("k", schema, map[string]int{"x": 1}, "")
	re := requireError(t, err, "x")
	if !strings.Contains(re.Reason, "bits, ways") {
		t.Errorf("unknown-parameter error should list the accepted names sorted, got %q", re.Reason)
	}
}

func TestNormalizeParamsFreshMap(t *testing.T) {
	schema := []Param{{Name: "bits", Min: 0, Max: 99}}
	in := map[string]int{"bits": 10}
	out, err := NormalizeParams("k", schema, in, "")
	if err != nil {
		t.Fatal(err)
	}
	out["bits"] = 99
	if in["bits"] != 10 {
		t.Error("NormalizeParams returned an alias of the caller's map")
	}
}

func TestHasParamAndCloneParams(t *testing.T) {
	schema := []Param{{Name: "b"}, {Name: "a"}}
	if !HasParam(schema, "a") || HasParam(schema, "c") || HasParam(nil, "a") {
		t.Error("HasParam disagrees with the schema")
	}
	if CloneParams(nil) != nil || CloneParams(map[string]int{}) != nil {
		t.Error("an empty parameter map must clone to nil")
	}
	in := map[string]int{"a": 1}
	out := CloneParams(in)
	out["a"] = 2
	if in["a"] != 1 {
		t.Error("CloneParams returned an alias")
	}
}
