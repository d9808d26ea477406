// Package pipeline implements the cycle-level micro-architecture simulator
// of the PolyPath paper: an 8-wide, out-of-order, in-order-commit machine
// (Fig. 1) extended with context tags, a context manager, per-path register
// maps and confidence-guided selective eager execution (Fig. 2).
//
// The simulator is execution-driven: instructions — including wrong-path
// instructions after divergent or mispredicted branches — execute with real
// register values, and the committed architectural state is bit-identical
// to the functional interpreter's (enforced by integration tests).
package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/confidence"
	"repro/internal/ctxtag"
	"repro/internal/policy"
	"repro/internal/registry"
)

// Mode selects the execution model.
type Mode int

const (
	// Monopath is the baseline speculative architecture: every branch
	// follows its prediction, mispredictions pay the full recovery
	// penalty.
	Monopath Mode = iota
	// PolyPath enables selective eager execution: low-confidence branches
	// diverge and both successor paths execute until resolution.
	PolyPath
)

func (m Mode) String() string {
	switch m {
	case Monopath:
		return "monopath"
	case PolyPath:
		return "polypath"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// PredictorKind names a branch direction predictor registered in
// internal/bpred. The set of valid kinds is open: any kind registered with
// bpred.Register (built-in or at runtime) is accepted, and ParsePredictorKind
// enumerates the currently registered set.
type PredictorKind string

// Built-in predictor kinds. These constants are retained for source
// compatibility with pre-registry code; new code can use any registered
// kind string directly.
const (
	// PredGshare is the paper's baseline (McFarling).
	PredGshare PredictorKind = "gshare"
	// PredBimodal is a per-address 2-bit counter table.
	PredBimodal PredictorKind = "bimodal"
	// PredStatic is backward-taken/forward-not-taken.
	PredStatic PredictorKind = "static"
	// PredOracle predicts perfectly on the architecturally correct path
	// (the "oracle" bars of Fig. 8).
	PredOracle PredictorKind = "oracle"
	// PredLocal is a two-level local-history (PAg) predictor.
	PredLocal PredictorKind = "local"
	// PredCombining is McFarling's combining predictor (bimodal + gshare
	// with a chooser).
	PredCombining PredictorKind = "combining"
	// PredTage is the TAGE predictor: base bimodal + tagged
	// geometric-history tables with CLZ longest-match selection.
	PredTage PredictorKind = "tage"
)

// ConfidenceKind names a confidence estimator registered in
// internal/confidence; like PredictorKind the valid set is open.
type ConfidenceKind = confidence.Kind

// Built-in confidence kinds, retained for source compatibility.
const (
	// ConfJRS is the Jacobsen-Rotenberg-Smith estimator with resetting
	// counters (the paper's real estimator).
	ConfJRS ConfidenceKind = "jrs"
	// ConfOracle is the perfect estimator: low confidence exactly on
	// mispredictions ("gshare/oracle" in Fig. 8).
	ConfOracle ConfidenceKind = "oracle"
	// ConfAlwaysHigh never diverges (monopath behaviour).
	ConfAlwaysHigh ConfidenceKind = "always-high"
	// ConfAlwaysLow diverges on every branch resources permit.
	ConfAlwaysLow ConfidenceKind = "always-low"
	// ConfAdaptive is JRS wrapped with the PVN monitor of Sec. 5.1's
	// "lesson learned".
	ConfAdaptive ConfidenceKind = "adaptive"
)

// PredictorSpec configures the direction predictor as an opaque
// (kind, parameters) pair resolved against the bpred registry: the pipeline
// carries the parameter map without interpreting it, so adding a predictor
// requires edits only under internal/bpred.
type PredictorSpec struct {
	Kind PredictorKind
	// Params are the kind's sizing parameters by schema name (for the
	// classic kinds, "hist_bits": history length / log2 table size — the
	// paper's baseline is 14). Absent optional parameters take their
	// registered defaults; normalization fills them in and rejects unknown
	// names and out-of-range values. nil and empty are equivalent.
	Params map[string]int
}

// Param returns the named parameter, or def when absent.
func (p PredictorSpec) Param(name string, def int) int {
	if v, ok := p.Params[name]; ok {
		return v
	}
	return def
}

// WithParam returns a copy of the spec with one parameter set. The
// parameter map is copied, never mutated in place, so specs embedded in
// configs copied by value cannot alias each other's state.
func (p PredictorSpec) WithParam(name string, v int) PredictorSpec {
	np := make(map[string]int, len(p.Params)+1)
	for k, pv := range p.Params {
		np[k] = pv
	}
	np[name] = v
	p.Params = np
	return p
}

// PredictorOf builds a spec from a kind and a literal parameter map.
func PredictorOf(kind PredictorKind, params map[string]int) PredictorSpec {
	return PredictorSpec{Kind: kind, Params: params}
}

// ConfidenceSpec configures the confidence estimator: the kind plus the
// JRS sizing fields (IndexBits is log2 of the table, paper: same as the
// predictor; CtrBits the counter width, paper: 1; EnhancedIndex includes
// the current prediction in the index, on in the baseline). Kinds
// registered from outside internal/confidence carry their extra integer
// parameters in Params; the built-in kinds accept none.
type ConfidenceSpec = confidence.Spec

// PolicySpec configures the optional phase-aware policy controller as an
// opaque (kind, epoch, candidates, parameters) tuple resolved against the
// policy registry, so adding a controller requires edits only under
// internal/policy. The zero value (empty Kind) means "no controller".
type PolicySpec = policy.Spec

// Config describes the simulated machine. DefaultConfig returns the
// paper's baseline (Sec. 4.2).
type Config struct {
	Mode Mode

	// Widths (instructions per cycle).
	FetchWidth  int
	RenameWidth int
	CommitWidth int

	// FrontEndStages is the number of in-order front-end stages between
	// fetch and window insertion; the total pipeline depth reported in
	// Fig. 12 is FrontEndStages + 3 (window/issue, execute, commit).
	FrontEndStages int

	// WindowSize is the central instruction window / reorder buffer size.
	WindowSize int

	// Functional units.
	NumIntType0 int
	NumIntType1 int
	NumFPAdd    int
	NumFPMul    int
	NumMemPorts int

	// Rename resources.
	PhysRegs    int
	Checkpoints int

	// PolyPath context resources.
	CtxHistoryWidth int // CTX-tag history positions (max unresolved divergences)
	MaxPaths        int // CTX table entries
	MaxDivergences  int // cap on simultaneous divergences; 0 = unlimited, 1 = dual-path

	Predictor  PredictorSpec
	Confidence ConfidenceSpec

	// Policy optionally attaches a phase-aware policy controller
	// (internal/policy): per-epoch feedback drives threshold/divergence/
	// fetch-width actuation at epoch boundaries. The zero spec (empty Kind)
	// means no controller — the machine behaves exactly as before the
	// policy framework existed, and the canonical hash of every policy-free
	// config is unchanged.
	Policy PolicySpec

	// FetchPolicy selects the multi-path fetch arbitration scheme
	// (Sec. 3.2.6 calls fetch policy a topic of future work; the paper's
	// evaluation uses the exponential-decay policy).
	FetchPolicy FetchPolicy

	// Memory hierarchy extension. The paper's baseline assumes always-hit
	// caches (Sec. 4.2); enabling these replaces that assumption with a
	// set-associative LRU cache model and a fixed miss penalty, for the
	// memory-sensitivity extension study.
	EnableDCache      bool
	DCache            cache.Config
	DCacheMissLatency int
	EnableICache      bool
	ICache            cache.Config
	ICacheMissLatency int

	// BTBBits sizes the branch target buffer used for indirect jumps
	// (2^BTBBits entries). Workloads without indirect jumps never touch
	// it.
	BTBBits int

	// RASDepth sizes the return-address stack predicting function-return
	// targets. Each path carries its own speculative copy.
	RASDepth int

	// EnableMRC adds a misprediction recovery cache (Bondi et al, the
	// paper's related work [1]): decoded sequences at previous recovery
	// targets are injected past the front end on later recoveries.
	EnableMRC bool
	// MRCBits sizes the recovery cache (2^MRCBits lines; 0 = 8).
	MRCBits int

	// ResolutionBuses bounds how many branches may resolve per cycle
	// (Sec. 3.2.3: "If support for multiple branch resolutions per cycle
	// is desired, multiple branch resolution busses are necessary").
	// 0 means unlimited.
	ResolutionBuses int

	// NonSpeculativeHistory disables speculative global-history update:
	// predictions index with the architectural (commit-time) history
	// instead of the per-path speculative history. The paper reports that
	// speculative update improves prediction accuracy by about 1%
	// (Sec. 4.2); this knob exists for that ablation.
	NonSpeculativeHistory bool

	// MaxInsts bounds committed instructions (0 = run to Halt).
	MaxInsts uint64

	// Audit selects machine-check invariant auditing (off/commit/cycle;
	// see machinecheck.go and audit.go). Auditing is a runtime diagnostic
	// knob: it never changes simulated results, so it is excluded from the
	// polypath/v1 wire format and from the canonical config hash.
	Audit AuditLevel
}

// FetchPolicy selects how live paths share fetch bandwidth.
type FetchPolicy int

const (
	// FetchExponential gives each older path half of the remaining
	// bandwidth (the paper's policy): bandwidth decreases exponentially
	// with a path's distance from the oldest divergence.
	FetchExponential FetchPolicy = iota
	// FetchRoundRobin divides bandwidth evenly across live paths.
	FetchRoundRobin
)

// DefaultConfig returns the paper's baseline machine: 8-wide, 8-stage,
// 256-entry window, 4+4 integer ALUs, 4+4 FP units, 4 memory ports,
// gshare(14) with speculative history update, JRS 1-bit estimator with
// enhanced indexing.
func DefaultConfig() Config {
	return Config{
		Mode:            PolyPath,
		FetchWidth:      8,
		RenameWidth:     8,
		CommitWidth:     8,
		FrontEndStages:  5,
		WindowSize:      256,
		NumIntType0:     4,
		NumIntType1:     4,
		NumFPAdd:        4,
		NumFPMul:        4,
		NumMemPorts:     4,
		PhysRegs:        0, // derived: NumRegs + WindowSize + 64
		Checkpoints:     0, // derived: max(16, WindowSize/4)
		CtxHistoryWidth: 8,
		MaxPaths:        24,
		MaxDivergences:  0,
		BTBBits:         9,
		RASDepth:        16,
		Predictor:       PredictorSpec{Kind: PredGshare, Params: map[string]int{"hist_bits": 11}},
		Confidence: ConfidenceSpec{
			Kind:          ConfJRS,
			IndexBits:     11,
			CtrBits:       1,
			EnhancedIndex: true,
		},
	}
}

// PipelineDepth returns the total pipeline depth as the paper counts it.
func (c Config) PipelineDepth() int { return c.FrontEndStages + 3 }

// normalize fills derived defaults and validates. Every violation is
// reported as a *ConfigError; nothing in here (or downstream of a
// normalized config) panics on user-supplied values.
func (c Config) normalize() (Config, error) {
	if c.PhysRegs == 0 {
		c.PhysRegs = 32 + c.WindowSize + 64
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = c.WindowSize / 4
		if c.Checkpoints < 16 {
			c.Checkpoints = 16
		}
	}
	switch {
	case c.Mode != Monopath && c.Mode != PolyPath:
		return c, cfgErr("Mode", "unknown mode %d", int(c.Mode))
	case c.FetchWidth < 1 || c.RenameWidth < 1 || c.CommitWidth < 1:
		return c, cfgErr("FetchWidth/RenameWidth/CommitWidth", "widths must be positive (got %d/%d/%d)", c.FetchWidth, c.RenameWidth, c.CommitWidth)
	case c.FrontEndStages < 1:
		return c, cfgErr("FrontEndStages", "must be >= 1 (got %d)", c.FrontEndStages)
	case c.WindowSize < 4:
		return c, cfgErr("WindowSize", "must be >= 4 (got %d)", c.WindowSize)
	case c.NumIntType0 < 1 || c.NumIntType1 < 1 || c.NumFPAdd < 1 || c.NumFPMul < 1 || c.NumMemPorts < 1:
		return c, cfgErr("NumIntType0/NumIntType1/NumFPAdd/NumFPMul/NumMemPorts", "need at least one functional unit of each type")
	case c.PhysRegs < 32+c.WindowSize:
		return c, cfgErr("PhysRegs", "%d cannot cover 32 logical + %d window entries", c.PhysRegs, c.WindowSize)
	case c.Checkpoints < 1:
		return c, cfgErr("Checkpoints", "need at least one checkpoint")
	case c.CtxHistoryWidth < 1 || c.CtxHistoryWidth > ctxtag.MaxPositions:
		return c, cfgErr("CtxHistoryWidth", "tag count %d exceeds the CTX-tag encoding capacity [1,%d]", c.CtxHistoryWidth, ctxtag.MaxPositions)
	case c.MaxPaths < 3:
		return c, cfgErr("MaxPaths", "must be >= 3 (parent + two children), got %d", c.MaxPaths)
	case c.MaxPaths > 1024:
		return c, cfgErr("MaxPaths", "%d exceeds the 1024-entry CTX table bound", c.MaxPaths)
	case c.MaxDivergences < 0:
		return c, cfgErr("MaxDivergences", "must be >= 0 (got %d)", c.MaxDivergences)
	case c.ResolutionBuses < 0:
		return c, cfgErr("ResolutionBuses", "must be >= 0 (got %d)", c.ResolutionBuses)
	case c.MaxInsts > 1<<40:
		return c, cfgErr("MaxInsts", "%d exceeds the 2^40 instruction bound", c.MaxInsts)
	case c.Audit != AuditOff && c.Audit != AuditCommit && c.Audit != AuditCycle:
		return c, cfgErr("Audit", "unknown audit level %d", int(c.Audit))
	}
	var err error
	if c.Predictor, err = c.Predictor.normalize(); err != nil {
		return c, registryErr("Predictor", err)
	}
	if c.Confidence, err = confidence.Normalize(c.Confidence); err != nil {
		return c, registryErr("Confidence", err)
	}
	if c.Policy.Kind == "" {
		// No controller: candidates/epoch/params are inert, canonicalize
		// them away so equivalent configs hash identically.
		c.Policy = PolicySpec{}
	} else if c.Policy, err = policy.Normalize(c.Policy); err != nil {
		return c, registryErr("Policy", err)
	}
	if c.Predictor.Kind == PredOracle && c.Confidence.Kind == ConfAdaptive {
		return c, cfgErr("Confidence.Kind", "adaptive (PVN-monitoring) confidence is undefined under the oracle predictor: a perfect predictor never mispredicts, so the monitored PVN has no sample to converge on")
	}
	if c.FetchPolicy != FetchExponential && c.FetchPolicy != FetchRoundRobin {
		return c, cfgErr("FetchPolicy", "unknown policy %d", int(c.FetchPolicy))
	}
	if c.BTBBits == 0 {
		c.BTBBits = 9
	}
	if c.BTBBits < 1 || c.BTBBits > 20 {
		return c, cfgErr("BTBBits", "%d out of [1,20]", c.BTBBits)
	}
	if c.RASDepth == 0 {
		c.RASDepth = 16
	}
	if c.RASDepth < 1 || c.RASDepth > 1024 {
		return c, cfgErr("RASDepth", "%d out of [1,1024]", c.RASDepth)
	}
	if c.MRCBits == 0 {
		c.MRCBits = 8
	}
	if c.MRCBits < 1 || c.MRCBits > 16 {
		return c, cfgErr("MRCBits", "%d out of [1,16]", c.MRCBits)
	}
	if c.EnableDCache {
		if err := c.DCache.Validate(); err != nil {
			return c, &ConfigError{Field: "DCache", Reason: err.Error()}
		}
		if c.DCacheMissLatency < 1 {
			return c, cfgErr("DCacheMissLatency", "must be >= 1 when the D-cache model is enabled")
		}
	} else {
		// The always-hit assumption is in effect: geometry and latency are
		// inert, so canonicalize them away.
		c.DCache = cache.Config{}
		c.DCacheMissLatency = 0
	}
	if c.EnableICache {
		if err := c.ICache.Validate(); err != nil {
			return c, &ConfigError{Field: "ICache", Reason: err.Error()}
		}
		if c.ICacheMissLatency < 1 {
			return c, cfgErr("ICacheMissLatency", "must be >= 1 when the I-cache model is enabled")
		}
	} else {
		c.ICache = cache.Config{}
		c.ICacheMissLatency = 0
	}
	if !c.EnableMRC {
		c.MRCBits = 8 // inert; keep the canonical default
	}
	return c, nil
}

// registryErr converts a registry rejection into the *ConfigError of one
// config section ("Predictor", "Confidence", "Policy"): the registry's
// field gains the section prefix ("Predictor.hist_bits",
// "Confidence.Kind").
func registryErr(section string, err error) error {
	var re *registry.Error
	if !errors.As(err, &re) {
		return cfgErr(section, "%v", err)
	}
	return cfgErr(section+"."+re.Field, "kind %q: %s", re.Kind, re.Reason)
}

// normalize resolves the spec against the predictor registry: the kind
// must be registered, parameters are schema-checked with defaults filled,
// and the returned spec's parameter map is canonical and freshly
// allocated. Errors are *registry.Error values.
func (p PredictorSpec) normalize() (PredictorSpec, error) {
	// hist_bits is the legacy sizing field every pre-registry config carried;
	// on the legacy v1 kinds whose schema has no such parameter (static,
	// oracle) it was inert, and normalization canonicalizes it away rather
	// than rejecting it — the Figure 9 sweep sets hist_bits uniformly across
	// its config set, oracle bars included. Post-v1 kinds (tage, runtime
	// registrations) get strict schema validation: any parameter their
	// schema does not declare, hist_bits included, is an error.
	if e, ok := bpred.Lookup(string(p.Kind)); ok {
		p.Kind = PredictorKind(e.Kind)
		if _, ok := p.Params["hist_bits"]; ok && v1PredictorKinds[p.Kind] && !registry.HasParam(e.Params, "hist_bits") {
			np := make(map[string]int, len(p.Params)-1)
			for k, v := range p.Params {
				if k != "hist_bits" {
					np[k] = v
				}
			}
			p.Params = np
		}
	}
	np, err := bpred.NormalizeParams(string(p.Kind), p.Params)
	p.Params = np
	return p, err
}
