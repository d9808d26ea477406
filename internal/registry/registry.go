// Package registry is the open kind registry shared by the branch
// predictors (internal/bpred), confidence estimators (internal/confidence)
// and policy controllers (internal/policy): a case-insensitive map from
// kind name to entry, one integer-parameter schema, and one typed error.
// Each family keeps only its Entry type and its built-in entries; the
// pipeline converts the one error type into its config error.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Error reports an entry, spec or parameter a registry rejects. Kind is
// the kind being registered or resolved, Field the offending field ("Kind"
// for an unknown kind, the caller's prefix plus the parameter name for a
// schema violation) and Reason the violated constraint.
type Error struct {
	Kind   string
	Field  string
	Reason string
}

func (e *Error) Error() string {
	return fmt.Sprintf("kind %q: %s: %s", e.Kind, e.Field, e.Reason)
}

// Registry maps kind names to entries. Kind spellings are case-insensitive
// and ignore surrounding space; an entry is stored, and reports its kind,
// under the canonical lower-case spelling. It is safe for concurrent use.
type Registry[E any] struct {
	noun    string
	kindOf  func(*E) *string
	mu      sync.RWMutex
	entries map[string]E
}

// New returns an empty registry. noun names the entry family in the
// unknown-kind error ("predictor"); kindOf returns the address of an
// entry's kind field, which Add canonicalizes in place.
func New[E any](noun string, kindOf func(*E) *string) *Registry[E] {
	return &Registry[E]{noun: noun, kindOf: kindOf, entries: make(map[string]E)}
}

func canonical(kind string) string { return strings.ToLower(strings.TrimSpace(kind)) }

// Add registers e under its canonical kind. An empty kind, or one already
// registered in any letter case, is an error: kinds are never silently
// replaced.
func (r *Registry[E]) Add(e E) error {
	kind := r.kindOf(&e)
	*kind = canonical(*kind)
	if *kind == "" {
		return &Error{Field: "Kind", Reason: "empty kind"}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[*kind]; dup {
		return &Error{Kind: *kind, Field: "Kind", Reason: "already registered"}
	}
	r.entries[*kind] = e
	return nil
}

// Lookup returns the entry for a kind in any letter case.
func (r *Registry[E]) Lookup(kind string) (E, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[canonical(kind)]
	return e, ok
}

// Get is Lookup reporting an unknown kind as an *Error whose reason lists
// the registered kinds.
func (r *Registry[E]) Get(kind string) (E, error) {
	e, ok := r.Lookup(kind)
	if !ok {
		return e, &Error{Kind: kind, Field: "Kind", Reason: fmt.Sprintf("unknown %s kind (registered: %s)", r.noun, strings.Join(r.Kinds(), ", "))}
	}
	return e, nil
}

// Kinds returns the registered kind spellings, sorted.
func (r *Registry[E]) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for k := range r.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Param declares one integer parameter of a kind's schema: its name, the
// accepted range [Min, Max], and whether it is Required or else takes
// Default when absent.
type Param struct {
	Name     string
	Doc      string
	Min, Max int
	Default  int
	Required bool
}

// CheckSchema reports a malformed schema: an empty or duplicate parameter
// name, or an empty range.
func CheckSchema(kind string, schema []Param) error {
	seen := make(map[string]bool, len(schema))
	for _, p := range schema {
		if p.Name == "" || seen[p.Name] {
			return &Error{Kind: kind, Field: "Params", Reason: fmt.Sprintf("duplicate or empty parameter name %q", p.Name)}
		}
		seen[p.Name] = true
		if p.Min > p.Max {
			return &Error{Kind: kind, Field: "Params", Reason: fmt.Sprintf("parameter %q has empty range [%d,%d]", p.Name, p.Min, p.Max)}
		}
	}
	return nil
}

// HasParam reports whether the schema declares the named parameter.
func HasParam(schema []Param, name string) bool {
	for _, p := range schema {
		if p.Name == name {
			return true
		}
	}
	return false
}

// NormalizeParams checks params against a kind's schema and returns the
// canonical parameter map: freshly allocated (nil for an empty schema),
// never an alias of params, holding every schema parameter with absent
// optional ones at their defaults. An unknown name, a missing required
// parameter or an out-of-range value is an *Error whose Field is prefix
// followed by the parameter name.
func NormalizeParams(kind string, schema []Param, params map[string]int, prefix string) (map[string]int, error) {
	var unknown []string
	for name := range params {
		if !HasParam(schema, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		accepted := "none"
		if len(schema) > 0 {
			names := make([]string, len(schema))
			for i, p := range schema {
				names[i] = p.Name
			}
			sort.Strings(names)
			accepted = strings.Join(names, ", ")
		}
		return nil, &Error{Kind: kind, Field: prefix + unknown[0], Reason: fmt.Sprintf("unknown parameter (accepted: %s)", accepted)}
	}
	var out map[string]int
	for _, p := range schema {
		v, present := params[p.Name]
		if !present {
			if p.Required {
				return nil, &Error{Kind: kind, Field: prefix + p.Name, Reason: fmt.Sprintf("required, range [%d,%d]", p.Min, p.Max)}
			}
			v = p.Default
		}
		if v < p.Min || v > p.Max {
			return nil, &Error{Kind: kind, Field: prefix + p.Name, Reason: fmt.Sprintf("%d out of [%d,%d]", v, p.Min, p.Max)}
		}
		if out == nil {
			out = make(map[string]int, len(schema))
		}
		out[p.Name] = v
	}
	return out, nil
}

// CloneParams returns an independent copy of a parameter map, nil when it
// is empty: the canonical form normalized specs carry, so specs copied by
// value never share mutable state and nil and empty compare equal.
func CloneParams(params map[string]int) map[string]int {
	if len(params) == 0 {
		return nil
	}
	out := make(map[string]int, len(params))
	for k, v := range params {
		out[k] = v
	}
	return out
}
