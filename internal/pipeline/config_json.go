package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/registry"
)

// SchemaV1 is the wire-format identifier of the original versioned
// canonical JSON encoding of a Config. Every encoded document carries its
// schema in a "schema" field; decoders reject documents with any other (or
// a missing) schema, so the format can evolve with explicit versioning
// instead of silent drift.
//
// polypath/v1 is frozen and read-only: it predates the open predictor
// registry and can express exactly the closed predictor/estimator set it
// shipped with (kind + hist_bits). DecodeConfig still reads documents in
// this schema; nothing writes or hashes it any more.
const SchemaV1 = "polypath/v1"

// SchemaV2 is the open-registry wire format and the only one written: the
// predictor travels as an opaque (kind, params) pair and the confidence
// spec gains the same open params map, so any registered kind round-trips
// without a schema bump.
const SchemaV2 = "polypath/v2"

// wireCache mirrors cache.Config with stable field names.
type wireCache struct {
	Sets      int `json:"sets"`
	Ways      int `json:"ways"`
	LineWords int `json:"line_words"`
}

// wirePredictorV1 mirrors the closed pre-registry PredictorSpec; the kind
// travels as its canonical spelling.
type wirePredictorV1 struct {
	Kind     string `json:"kind"`
	HistBits int    `json:"hist_bits"`
}

// wireConfidenceV1 mirrors ConfidenceSpec (without the open params map,
// which did not exist in v1).
type wireConfidenceV1 struct {
	Kind           string  `json:"kind"`
	IndexBits      int     `json:"index_bits"`
	CtrBits        int     `json:"ctr_bits"`
	Threshold      int     `json:"threshold"`
	EnhancedIndex  bool    `json:"enhanced_index"`
	AdaptiveMinPVN float64 `json:"adaptive_min_pvn"`
	AdaptiveWindow int     `json:"adaptive_window"`
}

// wirePredictorV2 carries the open predictor spec. Params is omitted when
// empty; encoding/json writes map keys sorted, so the encoding is
// canonical.
type wirePredictorV2 struct {
	Kind   string         `json:"kind"`
	Params map[string]int `json:"params,omitempty"`
}

// wireConfidenceV2 is wireConfidenceV1 plus the open params map. The
// embedded fields encode in place, first and in declaration order, which
// keeps the canonical v2 bytes (and so every v2 hash) fixed.
type wireConfidenceV2 struct {
	wireConfidenceV1
	Params map[string]int `json:"params,omitempty"`
}

// wireSettingV2 mirrors policy.Setting with stable field names.
type wireSettingV2 struct {
	ConfThreshold  int `json:"conf_threshold"`
	MaxDivergences int `json:"max_divergences"`
	FetchWidth     int `json:"fetch_width"`
}

// wirePolicyV2 carries the optional policy controller spec. The field is a
// pointer in wireConfigV2 with omitempty, so policy-free configs encode
// byte-identically to documents minted before the policy framework existed
// — polypath/v2 is open to new optional fields, unlike frozen v1.
type wirePolicyV2 struct {
	Kind        string          `json:"kind"`
	EpochCycles int             `json:"epoch_cycles"`
	Candidates  []wireSettingV2 `json:"candidates,omitempty"`
	Params      map[string]int  `json:"params,omitempty"`
}

// wireConfigV2 is the polypath/v2 wire form: identical to v1 except for
// the open predictor/confidence specs and the optional policy spec. Its
// field names and order are the canonical bytes CanonicalHash is taken
// over: renaming or reordering a field changes every hash.
type wireConfigV2 struct {
	Schema                string           `json:"schema"`
	Mode                  string           `json:"mode"`
	FetchWidth            int              `json:"fetch_width"`
	RenameWidth           int              `json:"rename_width"`
	CommitWidth           int              `json:"commit_width"`
	FrontEndStages        int              `json:"front_end_stages"`
	WindowSize            int              `json:"window_size"`
	NumIntType0           int              `json:"num_int_type0"`
	NumIntType1           int              `json:"num_int_type1"`
	NumFPAdd              int              `json:"num_fp_add"`
	NumFPMul              int              `json:"num_fp_mul"`
	NumMemPorts           int              `json:"num_mem_ports"`
	PhysRegs              int              `json:"phys_regs"`
	Checkpoints           int              `json:"checkpoints"`
	CtxHistoryWidth       int              `json:"ctx_history_width"`
	MaxPaths              int              `json:"max_paths"`
	MaxDivergences        int              `json:"max_divergences"`
	Predictor             wirePredictorV2  `json:"predictor"`
	Confidence            wireConfidenceV2 `json:"confidence"`
	FetchPolicy           string           `json:"fetch_policy"`
	EnableDCache          bool             `json:"enable_dcache"`
	DCache                wireCache        `json:"dcache"`
	DCacheMissLatency     int              `json:"dcache_miss_latency"`
	EnableICache          bool             `json:"enable_icache"`
	ICache                wireCache        `json:"icache"`
	ICacheMissLatency     int              `json:"icache_miss_latency"`
	BTBBits               int              `json:"btb_bits"`
	RASDepth              int              `json:"ras_depth"`
	EnableMRC             bool             `json:"enable_mrc"`
	MRCBits               int              `json:"mrc_bits"`
	ResolutionBuses       int              `json:"resolution_buses"`
	NonSpeculativeHistory bool             `json:"non_speculative_history"`
	MaxInsts              uint64           `json:"max_insts"`
	Policy                *wirePolicyV2    `json:"policy,omitempty"`
}

// wireConfigV1 is the polypath/v1 wire form of Config: the v2 form with
// the closed predictor/confidence specs in place of the open ones. The
// shadowing fields win over the embedded ones of the same JSON name.
// Policy shadows the v2 policy object so that a v1 document carrying one,
// even as null, is refused rather than silently accepted.
type wireConfigV1 struct {
	wireConfigV2
	Predictor  wirePredictorV1  `json:"predictor"`
	Confidence wireConfidenceV1 `json:"confidence"`
	Policy     json.RawMessage  `json:"policy"`
}

// v1PredictorKinds is the frozen predictor set of polypath/v1; a v1
// document naming any other kind is refused.
var v1PredictorKinds = map[PredictorKind]bool{
	PredGshare: true, PredBimodal: true, PredStatic: true,
	PredOracle: true, PredLocal: true, PredCombining: true,
}

// EncodeConfigV2 renders the configuration as canonical polypath/v2 JSON:
// the config is normalized (derived defaults filled, inert fields zeroed,
// constraints checked) and encoded with a fixed field order, so two
// configurations describing the same machine encode byte-identically.
// Any valid config — including ones using runtime-registered predictor or
// estimator kinds — is expressible; map parameters encode with sorted
// keys, so the output is byte-canonical.
func EncodeConfigV2(c Config) ([]byte, error) {
	n, err := c.normalize()
	if err != nil {
		return nil, err
	}
	w := wireConfigV2{
		Schema:          SchemaV2,
		Mode:            modeNames[n.Mode],
		FetchWidth:      n.FetchWidth,
		RenameWidth:     n.RenameWidth,
		CommitWidth:     n.CommitWidth,
		FrontEndStages:  n.FrontEndStages,
		WindowSize:      n.WindowSize,
		NumIntType0:     n.NumIntType0,
		NumIntType1:     n.NumIntType1,
		NumFPAdd:        n.NumFPAdd,
		NumFPMul:        n.NumFPMul,
		NumMemPorts:     n.NumMemPorts,
		PhysRegs:        n.PhysRegs,
		Checkpoints:     n.Checkpoints,
		CtxHistoryWidth: n.CtxHistoryWidth,
		MaxPaths:        n.MaxPaths,
		MaxDivergences:  n.MaxDivergences,
		Predictor: wirePredictorV2{
			Kind:   string(n.Predictor.Kind),
			Params: n.Predictor.Params,
		},
		Confidence: wireConfidenceV2{
			wireConfidenceV1: wireConfidenceV1{
				Kind:           string(n.Confidence.Kind),
				IndexBits:      n.Confidence.IndexBits,
				CtrBits:        n.Confidence.CtrBits,
				Threshold:      n.Confidence.Threshold,
				EnhancedIndex:  n.Confidence.EnhancedIndex,
				AdaptiveMinPVN: n.Confidence.AdaptiveMinPVN,
				AdaptiveWindow: n.Confidence.AdaptiveWindow,
			},
			Params: n.Confidence.Params,
		},
		FetchPolicy:           fetchPolicyNames[n.FetchPolicy],
		EnableDCache:          n.EnableDCache,
		DCache:                wireCache{n.DCache.Sets, n.DCache.Ways, n.DCache.LineWords},
		DCacheMissLatency:     n.DCacheMissLatency,
		EnableICache:          n.EnableICache,
		ICache:                wireCache{n.ICache.Sets, n.ICache.Ways, n.ICache.LineWords},
		ICacheMissLatency:     n.ICacheMissLatency,
		BTBBits:               n.BTBBits,
		RASDepth:              n.RASDepth,
		EnableMRC:             n.EnableMRC,
		MRCBits:               n.MRCBits,
		ResolutionBuses:       n.ResolutionBuses,
		NonSpeculativeHistory: n.NonSpeculativeHistory,
		MaxInsts:              n.MaxInsts,
	}
	if n.Policy.Kind != "" {
		wp := &wirePolicyV2{
			Kind:        n.Policy.Kind,
			EpochCycles: n.Policy.EpochCycles,
			Params:      n.Policy.Params,
		}
		for _, c := range n.Policy.Candidates {
			wp.Candidates = append(wp.Candidates, wireSettingV2{
				ConfThreshold:  c.ConfThreshold,
				MaxDivergences: c.MaxDivergences,
				FetchWidth:     c.FetchWidth,
			})
		}
		w.Policy = wp
	}
	return json.Marshal(w)
}

// DecodeConfig parses a versioned config document into a validated
// Config, dispatching on its "schema" field: polypath/v2 documents decode
// directly, read-only polypath/v1 documents through the compat shim.
// Unknown fields are rejected (a misspelled parameter is an error, never a
// silent default), the schema field is mandatory, anything after the
// document is refused, and the decoded machine is validated before it is
// returned. Every error is a *ConfigError.
func DecodeConfig(data []byte) (Config, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	// Unmarshal checks the whole input, so trailing data fails here.
	if err := json.Unmarshal(data, &probe); err != nil {
		return Config{}, &ConfigError{Field: "json", Reason: err.Error()}
	}
	switch probe.Schema {
	case SchemaV1:
		var w wireConfigV1
		if err := decodeStrict(data, &w); err != nil {
			return Config{}, err
		}
		return decodeV1(w)
	case SchemaV2:
		var w wireConfigV2
		if err := decodeStrict(data, &w); err != nil {
			return Config{}, err
		}
		return decodeCommon(w)
	default:
		return Config{}, cfgErr("schema", "got %q, want %q or %q", probe.Schema, SchemaV1, SchemaV2)
	}
}

// decodeStrict decodes a document into its wire struct, refusing unknown
// fields at every level.
func decodeStrict(data []byte, w any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w); err != nil {
		return &ConfigError{Field: "json", Reason: err.Error()}
	}
	return nil
}

// decodeV1 lifts a polypath/v1 document into the v2 form. Every document
// v1 could express decodes to the machine it described.
func decodeV1(w wireConfigV1) (Config, error) {
	if w.Policy != nil {
		return Config{}, cfgErr("Policy", "%s predates policy controllers; encode this config as %s", SchemaV1, SchemaV2)
	}
	pk, err := ParsePredictorKind(w.Predictor.Kind)
	if err != nil {
		return Config{}, err
	}
	if !v1PredictorKinds[pk] {
		return Config{}, cfgErr("Predictor.Kind", "kind %q postdates %s; encode this config as %s", w.Predictor.Kind, SchemaV1, SchemaV2)
	}
	// v1 always carries hist_bits; for kinds whose schema has no such
	// parameter (static, oracle) the field was inert and is dropped, which
	// is exactly how v1 normalization canonicalized it.
	var params map[string]int
	if e, _ := bpred.Lookup(string(pk)); w.Predictor.HistBits != 0 && registry.HasParam(e.Params, "hist_bits") {
		params = map[string]int{"hist_bits": w.Predictor.HistBits}
	}
	v2 := w.wireConfigV2
	v2.Predictor = wirePredictorV2{Kind: w.Predictor.Kind, Params: params}
	v2.Confidence = wireConfidenceV2{wireConfidenceV1: w.Confidence}
	return decodeCommon(v2)
}

// decodeCommon converts the v2 wire struct (the superset both schemas
// funnel into) to a validated Config.
func decodeCommon(w wireConfigV2) (Config, error) {
	mode, err := ParseMode(w.Mode)
	if err != nil {
		return Config{}, err
	}
	pk, err := ParsePredictorKind(w.Predictor.Kind)
	if err != nil {
		return Config{}, err
	}
	ck, err := ParseConfidenceKind(w.Confidence.Kind)
	if err != nil {
		return Config{}, err
	}
	fp, err := ParseFetchPolicy(w.FetchPolicy)
	if err != nil {
		return Config{}, err
	}
	c := Config{
		Mode:            mode,
		FetchWidth:      w.FetchWidth,
		RenameWidth:     w.RenameWidth,
		CommitWidth:     w.CommitWidth,
		FrontEndStages:  w.FrontEndStages,
		WindowSize:      w.WindowSize,
		NumIntType0:     w.NumIntType0,
		NumIntType1:     w.NumIntType1,
		NumFPAdd:        w.NumFPAdd,
		NumFPMul:        w.NumFPMul,
		NumMemPorts:     w.NumMemPorts,
		PhysRegs:        w.PhysRegs,
		Checkpoints:     w.Checkpoints,
		CtxHistoryWidth: w.CtxHistoryWidth,
		MaxPaths:        w.MaxPaths,
		MaxDivergences:  w.MaxDivergences,
		Predictor:       PredictorSpec{Kind: pk, Params: w.Predictor.Params},
		Confidence: ConfidenceSpec{
			Kind:           ck,
			IndexBits:      w.Confidence.IndexBits,
			CtrBits:        w.Confidence.CtrBits,
			Threshold:      w.Confidence.Threshold,
			EnhancedIndex:  w.Confidence.EnhancedIndex,
			AdaptiveMinPVN: w.Confidence.AdaptiveMinPVN,
			AdaptiveWindow: w.Confidence.AdaptiveWindow,
			Params:         w.Confidence.Params,
		},
		FetchPolicy:           fp,
		EnableDCache:          w.EnableDCache,
		DCache:                cache.Config{Sets: w.DCache.Sets, Ways: w.DCache.Ways, LineWords: w.DCache.LineWords},
		DCacheMissLatency:     w.DCacheMissLatency,
		EnableICache:          w.EnableICache,
		ICache:                cache.Config{Sets: w.ICache.Sets, Ways: w.ICache.Ways, LineWords: w.ICache.LineWords},
		ICacheMissLatency:     w.ICacheMissLatency,
		BTBBits:               w.BTBBits,
		RASDepth:              w.RASDepth,
		EnableMRC:             w.EnableMRC,
		MRCBits:               w.MRCBits,
		ResolutionBuses:       w.ResolutionBuses,
		NonSpeculativeHistory: w.NonSpeculativeHistory,
		MaxInsts:              w.MaxInsts,
	}
	if w.Policy != nil {
		c.Policy = PolicySpec{
			Kind:        w.Policy.Kind,
			EpochCycles: w.Policy.EpochCycles,
			Params:      w.Policy.Params,
		}
		for _, s := range w.Policy.Candidates {
			c.Policy.Candidates = append(c.Policy.Candidates, policy.Setting{
				ConfThreshold:  s.ConfThreshold,
				MaxDivergences: s.MaxDivergences,
				FetchWidth:     s.FetchWidth,
			})
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// CanonicalHash returns the hex SHA-256 of the canonical polypath/v2
// encoding of the normalized configuration (EncodeConfigV2): the stable
// identity used to key result memoization. Configurations that normalize
// identically hash identically, regardless of how they were spelled or
// which schema version carried them. An invalid config is reported as a
// *ConfigError, never a panic; there is deliberately no panicking Must
// variant, so every caller handles the error.
//
// Audit is a runtime diagnostic knob that cannot change results, so it is
// not part of the wire encoding: configs differing only in audit level
// hash identically and share memoized results.
func CanonicalHash(c Config) (string, error) {
	blob, err := EncodeConfigV2(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
