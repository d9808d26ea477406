package bpred

import "repro/internal/registry"

// Params carries a predictor's integer sizing parameters by name
// ("hist_bits", "tables", ...). A nil map and an empty map are equivalent:
// both mean "all defaults". Params is the open half of the registry
// contract — a new predictor declares its own parameter schema and the
// pipeline, wire format and CLIs carry the map opaquely.
type Params map[string]int

// Get returns the named parameter, or def when absent (nil maps included).
func (p Params) Get(name string, def int) int {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// Clone returns an independent copy (nil stays nil).
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	q := make(Params, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}

// Env is the machine context handed to predictor factories. It carries the
// hooks a predictor may need from the pipeline without coupling the
// registry to the pipeline package.
type Env struct {
	// TargetOf resolves a conditional branch's pc to its target
	// instruction index (the static BTFNT predictor needs it). Nil when
	// the caller has no program, e.g. when sizing tables only.
	TargetOf func(pc int) int
}

// Entry describes one registered predictor kind: its canonical spelling,
// parameter schema, factory, and storage-accounting function. StateBytes
// must agree with the constructed predictor's StateBytes() for any
// normalized params — the equal-area figures rely on computing budgets
// without building machines.
type Entry struct {
	Kind   string
	Doc    string
	Params []registry.Param
	New    func(p Params, env Env) (Predictor, error)
	// StateBytes returns the hardware budget in bytes for normalized
	// params. Entries with no table state may leave it nil (treated as 0).
	StateBytes func(p Params) int
}

var kinds = registry.New("predictor", func(e *Entry) *string { return &e.Kind })

// Register adds a predictor kind. An empty or already-registered kind, a
// nil factory or a malformed schema is an error.
func Register(e Entry) error {
	if e.New == nil {
		return &registry.Error{Kind: e.Kind, Field: "New", Reason: "nil factory"}
	}
	if err := registry.CheckSchema(e.Kind, e.Params); err != nil {
		return err
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

// NormalizeParams validates p against the kind's schema and returns the
// canonical parameter map (see registry.NormalizeParams). Errors are
// *registry.Error values whose Field is the parameter name, or "Kind" for
// an unregistered kind.
func NormalizeParams(kind string, p Params) (Params, error) {
	e, err := kinds.Get(kind)
	if err != nil {
		return nil, err
	}
	return registry.NormalizeParams(e.Kind, e.Params, p, "")
}

// Build normalizes p and constructs the predictor.
func Build(kind string, p Params, env Env) (Predictor, error) {
	np, err := NormalizeParams(kind, p)
	if err != nil {
		return nil, err
	}
	e, _ := Lookup(kind)
	return e.New(np, env)
}

// StateBytes normalizes p and returns the kind's hardware budget in bytes
// without constructing the predictor.
func StateBytes(kind string, p Params) (int, error) {
	np, err := NormalizeParams(kind, p)
	if err != nil {
		return 0, err
	}
	e, _ := Lookup(kind)
	if e.StateBytes == nil {
		return 0, nil
	}
	return e.StateBytes(np), nil
}
