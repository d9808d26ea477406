package bpred

import (
	"fmt"

	"repro/internal/registry"
)

// Null is the no-op predictor: it always predicts not-taken and learns
// nothing. The pipeline installs it under the "oracle" kind, where
// predictions come from the reference trace and the pattern tables are
// never consulted.
type Null struct{}

// Predict implements Predictor.
func (Null) Predict(int, uint64) bool { return false }

// Update implements Predictor.
func (Null) Update(int, uint64, bool) {}

// StateBytes implements Predictor.
func (Null) StateBytes() int { return 0 }

// Reset implements Predictor.
func (Null) Reset() {}

// histBitsSpec is the shared hist_bits schema of the classic predictors:
// history length / log2 table size, required with no default (the paper's
// baseline passes 14, the repo default 11).
func histBitsSpec(max int) registry.Param {
	return registry.Param{
		Name:     "hist_bits",
		Doc:      "history length / log2 table size",
		Min:      2,
		Max:      max,
		Required: true,
	}
}

func init() {
	MustRegister(Entry{
		Kind:   "gshare",
		Doc:    "McFarling gshare: global history XOR pc indexes 2-bit counters (the paper's baseline)",
		Params: []registry.Param{histBitsSpec(28)},
		New: func(p Params, _ Env) (Predictor, error) {
			return NewGshare(p.Get("hist_bits", 0)), nil
		},
		StateBytes: func(p Params) int { return (1 << uint(p.Get("hist_bits", 0))) / 4 },
	})
	MustRegister(Entry{
		Kind:   "bimodal",
		Doc:    "per-address 2-bit counter table (hist_bits = index bits)",
		Params: []registry.Param{histBitsSpec(28)},
		New: func(p Params, _ Env) (Predictor, error) {
			return NewBimodal(p.Get("hist_bits", 0)), nil
		},
		StateBytes: func(p Params) int { return (1 << uint(p.Get("hist_bits", 0))) / 4 },
	})
	MustRegister(Entry{
		Kind: "static",
		Doc:  "backward-taken/forward-not-taken; no learned state",
		New: func(_ Params, env Env) (Predictor, error) {
			if env.TargetOf == nil {
				return nil, fmt.Errorf("bpred: static predictor needs Env.TargetOf")
			}
			return &Static{TargetOf: env.TargetOf}, nil
		},
	})
	MustRegister(Entry{
		Kind: "oracle",
		Doc:  "perfect prediction from the reference trace (pipeline-special; the registry supplies a null table)",
		New: func(Params, Env) (Predictor, error) {
			return Null{}, nil
		},
	})
	MustRegister(Entry{
		// NewLocal bounds per-branch history registers at 16 bits, so the
		// schema is tighter than the 28-bit global-history kinds.
		Kind:   "local",
		Doc:    "two-level local-history (PAg): per-branch histories index a shared counter table",
		Params: []registry.Param{histBitsSpec(16)},
		New: func(p Params, _ Env) (Predictor, error) {
			bits := p.Get("hist_bits", 0)
			return NewLocal(bits, bits), nil
		},
		StateBytes: func(p Params) int {
			bits := p.Get("hist_bits", 0)
			return (1<<uint(bits))/4 + (1<<uint(bits))*bits/8
		},
	})
	MustRegister(Entry{
		// NewCombining bounds the chooser at 20 bits, so the budget tops
		// out at 21 (components run one bit under it).
		Kind:   "combining",
		Doc:    "McFarling combining: bimodal + gshare with a pc-indexed chooser, each one bit under the budget",
		Params: []registry.Param{histBitsSpec(21)},
		New: func(p Params, _ Env) (Predictor, error) {
			bits := combiningComponentBits(p.Get("hist_bits", 0))
			return NewCombining(NewBimodal(bits), NewGshare(bits), bits), nil
		},
		StateBytes: func(p Params) int {
			bits := combiningComponentBits(p.Get("hist_bits", 0))
			return 3 * (1 << uint(bits)) / 4
		},
	})
}

// combiningComponentBits is the equal-area-ish split the combining entry
// uses: each component (and the chooser) one bit smaller than the budget.
func combiningComponentBits(histBits int) int {
	bits := histBits - 1
	if bits < 2 {
		bits = 2
	}
	return bits
}
