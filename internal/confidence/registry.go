package confidence

import (
	"fmt"
	"maps"

	"repro/internal/registry"
)

// Kind names a confidence estimator registered with Register. The set of
// valid kinds is open: any registered kind (built-in or at runtime) is
// accepted.
type Kind string

func (k Kind) String() string { return string(k) }

// Spec is the kind-agnostic description of a confidence estimator: the
// named fields cover the built-in JRS/adaptive family (they are part of the
// frozen polypath/v1 wire format), and Params is the open extension point
// for estimators registered from outside this package. A registered kind's
// Normalize canonicalizes the fields it does not use, so specs describing
// the same estimator compare and hash identically.
type Spec struct {
	Kind          Kind
	IndexBits     int
	CtrBits       int
	Threshold     int
	EnhancedIndex bool
	// AdaptiveMinPVN / AdaptiveWindow configure the adaptive kind.
	AdaptiveMinPVN float64
	AdaptiveWindow int
	// Params carries extra integer parameters for registered estimators
	// that need more than the named fields. nil and empty are equivalent.
	Params map[string]int
}

// Equal reports whether s and o describe the same estimator field for
// field, nil and empty Params alike.
func (s Spec) Equal(o Spec) bool {
	return s.Kind == o.Kind && s.IndexBits == o.IndexBits && s.CtrBits == o.CtrBits &&
		s.Threshold == o.Threshold && s.EnhancedIndex == o.EnhancedIndex &&
		s.AdaptiveMinPVN == o.AdaptiveMinPVN && s.AdaptiveWindow == o.AdaptiveWindow &&
		maps.Equal(s.Params, o.Params)
}

// Entry describes one registered estimator kind. Normalize validates the
// spec and returns its canonical form (inert fields zeroed, defaults
// filled); New constructs the estimator from a normalized spec.
type Entry struct {
	Kind      string
	Doc       string
	Normalize func(Spec) (Spec, error)
	New       func(Spec) (Estimator, error)
}

var kinds = registry.New("confidence", func(e *Entry) *string { return &e.Kind })

// Register adds an estimator kind. An empty or already-registered kind, a
// nil factory or a nil normalizer is an error.
func Register(e Entry) error {
	switch {
	case e.New == nil:
		return &registry.Error{Kind: e.Kind, Field: "New", Reason: "nil factory"}
	case e.Normalize == nil:
		return &registry.Error{Kind: e.Kind, Field: "Normalize", Reason: "nil normalizer"}
	}
	return kinds.Add(e)
}

// MustRegister is Register for init-time built-ins; it panics on error.
func MustRegister(e Entry) {
	if err := Register(e); err != nil {
		panic(err)
	}
}

// Lookup returns the entry for a kind (case-insensitive).
func Lookup(kind string) (Entry, bool) { return kinds.Lookup(kind) }

// Kinds returns the registered kind spellings, sorted.
func Kinds() []string { return kinds.Kinds() }

// Normalize validates s against its kind's constraints and returns the
// canonical spec. The returned spec never aliases s.Params. Errors are
// *registry.Error values naming the offending spec field.
func Normalize(s Spec) (Spec, error) {
	e, err := kinds.Get(string(s.Kind))
	if err != nil {
		return Spec{}, err
	}
	s.Kind = Kind(e.Kind)
	ns, err := e.Normalize(s)
	if err != nil {
		return Spec{}, err
	}
	ns.Params = registry.CloneParams(ns.Params)
	return ns, nil
}

// Build normalizes s and constructs the estimator.
func Build(s Spec) (Estimator, error) {
	ns, err := Normalize(s)
	if err != nil {
		return nil, err
	}
	e, _ := Lookup(string(ns.Kind))
	return e.New(ns)
}

// normalizeJRSFields validates the JRS table sizing shared by the jrs and
// adaptive kinds. The built-in kinds declare an empty Params schema.
func normalizeJRSFields(kind string, s Spec) (Spec, error) {
	if _, err := registry.NormalizeParams(kind, nil, s.Params, "Params."); err != nil {
		return Spec{}, err
	}
	if s.IndexBits < 1 || s.IndexBits > 28 {
		return Spec{}, &registry.Error{Kind: kind, Field: "IndexBits", Reason: fmt.Sprintf("%d out of [1,28]", s.IndexBits)}
	}
	if s.CtrBits < 1 || s.CtrBits > 8 {
		return Spec{}, &registry.Error{Kind: kind, Field: "CtrBits", Reason: fmt.Sprintf("%d out of [1,8]", s.CtrBits)}
	}
	if max := (1 << uint(s.CtrBits)) - 1; s.Threshold < 0 || s.Threshold > max {
		return Spec{}, &registry.Error{Kind: kind, Field: "Threshold", Reason: fmt.Sprintf("%d exceeds the %d-bit counter maximum %d (0 selects saturation)", s.Threshold, s.CtrBits, max)}
	}
	return s, nil
}

func jrsFromSpec(s Spec) *JRS {
	return NewJRS(JRSConfig{
		IndexBits:     s.IndexBits,
		CtrBits:       s.CtrBits,
		Threshold:     s.Threshold,
		EnhancedIndex: s.EnhancedIndex,
	})
}

// degenerateEntry registers a stateless estimator kind: every sizing field
// is inert and canonicalized away.
func degenerateEntry(kind, doc string, est Estimator) Entry {
	return Entry{
		Kind: kind,
		Doc:  doc,
		Normalize: func(s Spec) (Spec, error) {
			if _, err := registry.NormalizeParams(kind, nil, s.Params, "Params."); err != nil {
				return Spec{}, err
			}
			return Spec{Kind: Kind(kind)}, nil
		},
		New: func(Spec) (Estimator, error) { return est, nil },
	}
}

func init() {
	MustRegister(Entry{
		Kind: "jrs",
		Doc:  "Jacobsen-Rotenberg-Smith resetting counters (the paper's estimator)",
		Normalize: func(s Spec) (Spec, error) {
			ns, err := normalizeJRSFields("jrs", s)
			if err != nil {
				return Spec{}, err
			}
			ns.AdaptiveMinPVN = 0
			ns.AdaptiveWindow = 0
			return ns, nil
		},
		New: func(s Spec) (Estimator, error) { return jrsFromSpec(s), nil },
	})
	MustRegister(Entry{
		Kind: "adaptive",
		Doc:  "JRS wrapped with the Sec. 5.1 PVN monitor (reverts to monopath when PVN drops)",
		Normalize: func(s Spec) (Spec, error) {
			ns, err := normalizeJRSFields("adaptive", s)
			if err != nil {
				return Spec{}, err
			}
			if ns.AdaptiveMinPVN < 0 || ns.AdaptiveMinPVN >= 1 {
				return Spec{}, &registry.Error{Kind: "adaptive", Field: "AdaptiveMinPVN", Reason: fmt.Sprintf("%g out of [0,1) (0 selects the default 0.30)", ns.AdaptiveMinPVN)}
			}
			if ns.AdaptiveWindow != 0 && ns.AdaptiveWindow < 8 {
				return Spec{}, &registry.Error{Kind: "adaptive", Field: "AdaptiveWindow", Reason: fmt.Sprintf("%d must be 0 (default 256) or >= 8", ns.AdaptiveWindow)}
			}
			if ns.AdaptiveMinPVN == 0 {
				ns.AdaptiveMinPVN = 0.30
			}
			if ns.AdaptiveWindow == 0 {
				ns.AdaptiveWindow = 256
			}
			return ns, nil
		},
		New: func(s Spec) (Estimator, error) {
			return NewAdaptive(jrsFromSpec(s), AdaptiveConfig{MinPVN: s.AdaptiveMinPVN, Window: s.AdaptiveWindow}), nil
		},
	})
	MustRegister(degenerateEntry("oracle", "perfect estimator: low confidence exactly on mispredictions", Oracle{}))
	MustRegister(degenerateEntry("always-high", "never diverge (monopath behaviour)", AlwaysHigh{}))
	MustRegister(degenerateEntry("always-low", "diverge on every branch resources permit", AlwaysLow{}))
}
