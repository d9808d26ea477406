// Package core is the public API of the PolyPath / Selective Eager
// Execution reproduction: it assembles the pipeline simulator, predictors,
// confidence estimators and workloads into the named machine configurations
// the paper evaluates, and runs simulations.
//
// The configurations of Fig. 8 map onto this API as:
//
//	monopath            -> ConfigMonopath()
//	oracle              -> ConfigOracleBP()
//	gshare/oracle       -> ConfigSEEOracleCE()
//	gshare/JRS          -> ConfigSEE()
//	gshare/oracle/dual  -> ConfigDualPathOracleCE()
//	gshare/JRS/dual     -> ConfigDualPath()
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Config is the machine configuration; it re-exports the pipeline package
// configuration as the library's public surface.
type Config = pipeline.Config

// PolicySpec re-exports the pipeline's adaptive-policy configuration: the
// optional per-epoch SEE policy controller attached to a Config (see
// internal/policy). The zero value means no controller.
type PolicySpec = pipeline.PolicySpec

// Result holds the outcome of one verified simulation.
type Result struct {
	Stats stats.Sim
	// IPC is committed instructions per cycle, the paper's primary metric.
	IPC float64
}

// RunCell simulates prog under cfg and verifies the committed
// architectural state against the functional reference execution; a
// mismatch is an error, so every returned Result is verified. It is the
// one run entry point: cooperative cancellation through ctx, an optional
// pipeline tracer (nil for none; observation only, the result is
// bit-identical to an untraced run), and arena-style buffer recycling.
// A worker that runs cells back-to-back passes the same *pipeline.Arena
// each time; the machine draws its allocations (memory pages, register
// file, window, scheduler state, pools, rename and predictor tables)
// from the arena and donates them back after a successful, verified run. A nil arena
// degrades to plain allocation. Failed or panicked cells never recycle,
// so their state stays inspectable and the arena stays valid.
func RunCell(ctx context.Context, prog *isa.Program, cfg Config, tr pipeline.Tracer, a *pipeline.Arena) (*Result, error) {
	m, err := pipeline.NewWithArena(prog, cfg, a)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		m.SetTracer(tr)
	}
	if err := m.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("core: %s: %w", prog.Name, err)
	}
	if err := m.VerifyArchState(); err != nil {
		return nil, fmt.Errorf("core: %s: architectural state mismatch: %w", prog.Name, err)
	}
	res := &Result{Stats: m.Stats, IPC: m.Stats.IPC()}
	m.Recycle(a)
	return res, nil
}

// ConfigMonopath returns the paper's baseline: a speculative, monopath,
// out-of-order machine with the gshare predictor.
func ConfigMonopath() Config {
	c := pipeline.DefaultConfig()
	c.Mode = pipeline.Monopath
	c.Confidence.Kind = pipeline.ConfAlwaysHigh
	return c
}

// ConfigOracleBP returns the perfect-branch-prediction calibration machine
// ("oracle" in Fig. 8).
func ConfigOracleBP() Config {
	c := ConfigMonopath()
	c.Predictor.Kind = pipeline.PredOracle
	return c
}

// ConfigSEE returns the real SEE machine: gshare plus the JRS confidence
// estimator with the paper's modifications ("gshare/JRS").
func ConfigSEE() Config {
	return pipeline.DefaultConfig()
}

// ConfigSEEOracleCE returns SEE with a perfect confidence estimator
// ("gshare/oracle"): divergence happens exactly on mispredictions.
func ConfigSEEOracleCE() Config {
	c := pipeline.DefaultConfig()
	c.Confidence.Kind = pipeline.ConfOracle
	return c
}

// ConfigDualPath returns the dual-path restriction of Sec. 5.2: at most
// one divergence (3 paths) in flight ("gshare/JRS/dual-path").
func ConfigDualPath() Config {
	c := ConfigSEE()
	c.MaxDivergences = 1
	return c
}

// ConfigDualPathOracleCE returns dual-path with the perfect confidence
// estimator ("gshare/oracle/dual-path").
func ConfigDualPathOracleCE() Config {
	c := ConfigSEEOracleCE()
	c.MaxDivergences = 1
	return c
}

// ConfigSEEAdaptive returns SEE with the PVN-monitoring adaptive estimator
// (the paper's Sec. 5.1 "lesson learned", implemented as an extension).
func ConfigSEEAdaptive() Config {
	c := pipeline.DefaultConfig()
	c.Confidence.Kind = pipeline.ConfAdaptive
	return c
}

// ConfigSEETage returns SEE with the TAGE predictor sized to exactly the
// storage of the default gshare(11) ("tage/JRS"): the iso-storage point the
// Figure 9-TAGE equal-area sweep passes through at 11 budget bits.
func ConfigSEETage() Config {
	c := pipeline.DefaultConfig()
	c.Predictor = pipeline.PredictorSpec{
		Kind:   pipeline.PredTage,
		Params: map[string]int(bpred.TageIsoParams(11)),
	}
	return c
}

// modelConfigs is the single registry of machine-model spellings shared by
// every front end (polysim, polydbg, polyserve): one place to add a model,
// one set of accepted names.
var modelConfigs = map[string]func() Config{
	"monopath":       ConfigMonopath,
	"see":            ConfigSEE,
	"dualpath":       ConfigDualPath,
	"oracle":         ConfigOracleBP,
	"see-oracle-ce":  ConfigSEEOracleCE,
	"dual-oracle-ce": ConfigDualPathOracleCE,
	"adaptive":       ConfigSEEAdaptive,
	"tage":           ConfigSEETage,
	"eager": func() Config {
		c := ConfigSEE()
		c.Confidence.Kind = pipeline.ConfAlwaysLow
		return c
	},
}

// ModelNames returns the accepted model spellings, sorted.
func ModelNames() []string {
	names := make([]string, 0, len(modelConfigs))
	for name := range modelConfigs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ModelConfig resolves a model name (e.g. "see", "monopath", "dualpath")
// to its machine configuration. Unknown names return a descriptive error
// listing the accepted spellings.
func ModelConfig(name string) (Config, error) {
	mk, ok := modelConfigs[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return Config{}, fmt.Errorf("core: unknown model %q (valid: %s)", name, strings.Join(ModelNames(), ", "))
	}
	return mk(), nil
}
