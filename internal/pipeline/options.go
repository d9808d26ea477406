package pipeline

import "fmt"

// ConfigError is the typed error returned for every invalid machine
// configuration: Field names the offending parameter (or parameter group)
// and Reason describes the constraint it violates. All configuration
// validation goes through this type — an invalid user-supplied config is
// never a panic.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("pipeline: invalid config: %s: %s", e.Field, e.Reason)
}

func cfgErr(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Option mutates a Config under construction. Options compose left to
// right; validation happens once, after all options are applied.
type Option func(*Config)

// NewConfigFrom builds a validated configuration starting from base (the
// paper's DefaultConfig, or one of the named model configurations in
// internal/core) and applying the given options. It returns a
// *ConfigError if the resulting machine is invalid.
func NewConfigFrom(base Config, opts ...Option) (Config, error) {
	for _, opt := range opts {
		opt(&base)
	}
	if err := base.Validate(); err != nil {
		return Config{}, err
	}
	return base, nil
}

// Validate checks the configuration without mutating it, returning a
// *ConfigError describing the first violated constraint. Derived defaults
// (PhysRegs, Checkpoints, BTB/RAS/MRC sizes) are filled before checking,
// exactly as the simulator will fill them.
func (c *Config) Validate() error {
	_, err := c.normalize()
	return err
}

// Normalized returns the canonical form of the configuration: derived
// defaults filled in and all constraints checked. Two configurations that
// normalize identically describe the same machine; the canonical JSON
// encoding and the memoization hash are both computed over this form.
func (c Config) Normalized() (Config, error) {
	return c.normalize()
}

// WithWindowSize sets the instruction window / reorder buffer size and
// re-derives the physical register file and checkpoint pool to match.
func WithWindowSize(n int) Option {
	return func(c *Config) {
		c.WindowSize = n
		c.PhysRegs = 0
		c.Checkpoints = 0
	}
}

// WithPipelineDepth sets the total pipeline depth as the paper counts it
// (front-end stages + window/issue + execute + commit).
func WithPipelineDepth(depth int) Option {
	return func(c *Config) { c.FrontEndStages = depth - 3 }
}

// WithUniformUnits sets every functional-unit count (both integer types,
// both FP types, and memory ports) to n, the paper's Figure 11 scaling.
func WithUniformUnits(n int) Option {
	return func(c *Config) {
		c.NumIntType0, c.NumIntType1 = n, n
		c.NumFPAdd, c.NumFPMul, c.NumMemPorts = n, n, n
	}
}

// WithHistoryBits sets the predictor's hist_bits parameter and keeps the
// confidence-estimator index in lockstep, the pairing the paper evaluates.
// (It applies to the classic global-history kinds; predictors without a
// hist_bits parameter reject it at validation.)
func WithHistoryBits(bits int) Option {
	return func(c *Config) {
		c.Predictor = c.Predictor.WithParam("hist_bits", bits)
		c.Confidence.IndexBits = bits
	}
}
