package pipeline

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bpred"
	"repro/internal/confidence"
)

// This file is the single source of truth for the textual spellings of the
// configuration enumerations. Mode and fetch policy are closed enums with
// name tables here; predictor and confidence kinds are open sets
// enumerated from the bpred/confidence registries, so a kind registered
// anywhere (built-in or at runtime) is immediately parseable by every
// command-line flag and wire-format field — the accepted set can never
// drift from the registered set.

var modeNames = map[Mode]string{
	Monopath: "monopath",
	PolyPath: "polypath",
}

var fetchPolicyNames = map[FetchPolicy]string{
	FetchExponential: "exponential",
	FetchRoundRobin:  "round-robin",
}

func (k PredictorKind) String() string { return string(k) }

func (p FetchPolicy) String() string {
	if s, ok := fetchPolicyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("fetchpolicy(%d)", int(p))
}

// parseKind resolves a case-insensitive spelling against a name table,
// returning a typed error listing the accepted spellings on failure.
func parseKind[K comparable](field, s string, names map[K]string) (K, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	for k, name := range names {
		if name == want {
			return k, nil
		}
	}
	var zero K
	valid := make([]string, 0, len(names))
	for _, name := range names {
		valid = append(valid, name)
	}
	sort.Strings(valid)
	return zero, &ConfigError{Field: field, Reason: fmt.Sprintf("unknown value %q (valid: %s)", s, strings.Join(valid, ", "))}
}

// ParseMode parses a mode spelling ("monopath", "polypath").
func ParseMode(s string) (Mode, error) {
	return parseKind("Mode", s, modeNames)
}

// ParsePredictorKind resolves a predictor spelling against the bpred registry.
// The error for an unknown spelling lists the currently registered kinds.
func ParsePredictorKind(s string) (PredictorKind, error) {
	if e, ok := bpred.Lookup(s); ok {
		return PredictorKind(e.Kind), nil
	}
	return "", &ConfigError{Field: "Predictor.Kind", Reason: fmt.Sprintf("unknown value %q (registered: %s)", s, strings.Join(bpred.Kinds(), ", "))}
}

// ParseConfidenceKind resolves a confidence-estimator spelling against
// the confidence registry; unknown spellings list the registered kinds.
func ParseConfidenceKind(s string) (ConfidenceKind, error) {
	if e, ok := confidence.Lookup(s); ok {
		return ConfidenceKind(e.Kind), nil
	}
	return "", &ConfigError{Field: "Confidence.Kind", Reason: fmt.Sprintf("unknown value %q (registered: %s)", s, strings.Join(confidence.Kinds(), ", "))}
}

// PredictorKinds returns the currently registered predictor kinds, sorted
// (for CLI help text and docs).
func PredictorKinds() []string { return bpred.Kinds() }

// ParseFetchPolicy parses a fetch-policy spelling ("exponential",
// "round-robin").
func ParseFetchPolicy(s string) (FetchPolicy, error) {
	return parseKind("FetchPolicy", s, fetchPolicyNames)
}
