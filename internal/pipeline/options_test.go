package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestNewConfigDefaultsAreValid(t *testing.T) {
	cfg, err := NewConfigFrom(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Error("NewConfigFrom(DefaultConfig()) without options must equal DefaultConfig()")
	}
}

func TestNewConfigOptionsCompose(t *testing.T) {
	cfg, err := NewConfigFrom(DefaultConfig(),
		func(c *Config) { c.Mode = Monopath },
		WithWindowSize(128),
		WithPipelineDepth(10),
		WithUniformUnits(2),
		WithHistoryBits(9),
		func(c *Config) { c.MaxDivergences = 1 },
		func(c *Config) { c.MaxInsts = 5000 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != Monopath || cfg.WindowSize != 128 || cfg.FrontEndStages != 7 ||
		cfg.NumMemPorts != 2 || cfg.Predictor.Param("hist_bits", 0) != 9 || cfg.Confidence.IndexBits != 9 ||
		cfg.MaxDivergences != 1 || cfg.MaxInsts != 5000 {
		t.Errorf("options not applied: %+v", cfg)
	}
	if cfg.PhysRegs != 0 || cfg.Checkpoints != 0 {
		t.Error("WithWindowSize must leave PhysRegs/Checkpoints to be re-derived")
	}
}

// requireConfigError asserts the typed-error contract: every invalid
// configuration yields a *ConfigError naming the offending field.
func requireConfigError(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: invalid config accepted", field)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: want *ConfigError, got %T (%v)", field, err, err)
	}
	if !strings.Contains(ce.Field, field) {
		t.Errorf("error field %q should reference %q", ce.Field, field)
	}
}

func TestValidateZeroWidthMachine(t *testing.T) {
	_, err := NewConfigFrom(DefaultConfig(), func(c *Config) { c.FetchWidth = 0 })
	requireConfigError(t, err, "FetchWidth")
}

func TestValidateTagCountExceedsCapacity(t *testing.T) {
	// More CTX-tag history positions than the tag encoding can hold.
	_, err := NewConfigFrom(DefaultConfig(), func(c *Config) { c.CtxHistoryWidth = 33 })
	requireConfigError(t, err, "CtxHistoryWidth")
	// More CTX-table entries than the path-table bound.
	_, err = NewConfigFrom(DefaultConfig(), func(c *Config) { c.MaxPaths = 4096 })
	requireConfigError(t, err, "MaxPaths")
}

func TestValidateOraclePredictorAdaptiveConfidence(t *testing.T) {
	_, err := NewConfigFrom(DefaultConfig(),
		func(c *Config) { c.Predictor = PredictorSpec{Kind: PredOracle} },
		func(c *Config) { c.Confidence.Kind = ConfAdaptive },
	)
	requireConfigError(t, err, "Confidence.Kind")
}

func TestValidateRejectsConstructorPanicRanges(t *testing.T) {
	// Each of these used to reach a constructor panic (bpred/confidence);
	// with the validated constructor they are typed errors instead.
	cases := []struct {
		field string
		opt   Option
	}{
		{"Predictor.hist_bits", func(c *Config) { c.Predictor = c.Predictor.WithParam("hist_bits", 40) }},
		{"Predictor.hist_bits", func(c *Config) { c.Predictor = c.Predictor.WithParam("hist_bits", -1) }},
		{"Predictor.table_bits", func(c *Config) { c.Predictor = c.Predictor.WithParam("table_bits", 12) }},
		{"Predictor.Kind", func(c *Config) { c.Predictor.Kind = "nonesuch" }},
		{"Confidence.IndexBits", func(c *Config) { c.Confidence.IndexBits = 30 }},
		{"Confidence.CtrBits", func(c *Config) { c.Confidence.CtrBits = 9 }},
		{"Confidence.Threshold", func(c *Config) { c.Confidence.CtrBits = 2; c.Confidence.Threshold = 4 }},
		{"Confidence.Kind", func(c *Config) { c.Confidence.Kind = "nonesuch" }},
		{"Confidence.Params", func(c *Config) { c.Confidence.Params = map[string]int{"mystery": 1} }},
		{"Confidence.AdaptiveMinPVN", func(c *Config) { c.Confidence.Kind = ConfAdaptive; c.Confidence.AdaptiveMinPVN = 1.5 }},
		{"Confidence.AdaptiveWindow", func(c *Config) { c.Confidence.Kind = ConfAdaptive; c.Confidence.AdaptiveWindow = 3 }},
		{"Mode", func(c *Config) { c.Mode = Mode(7) }},
		{"FetchPolicy", func(c *Config) { c.FetchPolicy = FetchPolicy(7) }},
		{"BTBBits", func(c *Config) { c.BTBBits = 30 }},
		{"RASDepth", func(c *Config) { c.RASDepth = 5000 }},
		{"WindowSize", func(c *Config) { c.WindowSize = 2 }},
	}
	for _, tc := range cases {
		_, err := NewConfigFrom(DefaultConfig(), tc.opt)
		requireConfigError(t, err, tc.field)
	}
}

func TestValidateDoesNotMutate(t *testing.T) {
	cfg := DefaultConfig()
	before, err := EncodeConfigV2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	after, err := EncodeConfigV2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("Validate mutated the config")
	}
}

func TestNormalizedFillsDerivedDefaults(t *testing.T) {
	n, err := DefaultConfig().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.PhysRegs == 0 || n.Checkpoints == 0 {
		t.Error("Normalized must fill derived defaults")
	}
}

// TestMachineNewNeverPanicsOnInvalidConfig sweeps a grid of hostile
// configurations through the full constructor path: every outcome must be
// an error, never a panic.
func TestMachineNewNeverPanicsOnInvalidConfig(t *testing.T) {
	prog := diamondProgram(100, 0.5)
	mutations := []Option{
		func(c *Config) { c.Predictor = c.Predictor.WithParam("hist_bits", 64) },
		func(c *Config) { c.Confidence.CtrBits = -3 },
		func(c *Config) { c.Confidence.Kind = ConfAdaptive; c.Confidence.AdaptiveMinPVN = -0.1 },
		func(c *Config) { c.CtxHistoryWidth = 40 },
		func(c *Config) { c.PhysRegs = 5 },
		func(c *Config) { c.Checkpoints = -1 },
		func(c *Config) { c.EnableDCache = true },
		func(c *Config) { c.EnableICache = true; c.ICache.Sets = 3 },
		func(c *Config) { c.MRCBits = 99 },
	}
	for i, mut := range mutations {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("mutation %d: panic on user-supplied config: %v", i, r)
				}
			}()
			cfg := DefaultConfig()
			mut(&cfg)
			if _, err := New(prog, cfg); err == nil {
				t.Errorf("mutation %d: invalid config accepted", i)
			}
		}()
	}
}

func TestRunContextCancellation(t *testing.T) {
	m, err := New(diamondProgram(200_000, 0.5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = m.RunContext(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run must surface context.Canceled, got %v", err)
	}
	if m.Halted() {
		t.Error("cancelled run should not report a completed simulation")
	}
}
