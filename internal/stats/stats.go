// Package stats collects the performance counters reported in the paper's
// evaluation: IPC, fetch/commit instruction counts (useless-instruction
// accounting), branch prediction and confidence-estimation accuracy (PVN),
// path utilization, functional unit utilization, and instruction window
// occupancy.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/isa"
)

// Sim accumulates all counters for one simulation run.
type Sim struct {
	Cycles uint64

	// Instruction flow.
	Fetched   uint64 // instructions entering the front end
	Renamed   uint64 // instructions dispatched into the window
	Committed uint64 // instructions retired
	Killed    uint64 // instructions squashed (window + front end)

	// Branches (counted at commit, i.e. on the correct path only).
	CondBranches    uint64
	Mispredicts     uint64
	TakenBranches   uint64
	LowConf         uint64 // low-confidence estimates among committed branches
	LowConfMispred  uint64 // ... of which were actually mispredicted
	HighConfMispred uint64

	// Indirect control flow (BTB-predicted).
	IndirectJumps       uint64
	IndirectMispredicts uint64
	IndirectRecoveries  uint64

	// Misprediction recovery cache (comparator extension).
	MRCInjections uint64

	// SEE machinery.
	Divergences        uint64 // divergences actually created
	DivergenceBlocked  uint64 // low-confidence branches that could not diverge (resources)
	WrongSubtreeKills  uint64 // divergence resolutions that killed a subtree
	MonopathRecoveries uint64 // conventional misprediction recoveries

	// Sampled distributions, one sample per simulated cycle except the
	// last: the halting cycle records none (the pipeline's step skips its
	// sample, and commit returns as soon as Halt retires), so each holds
	// Cycles-1 samples.
	PathHist   Histogram // live paths per cycle
	WindowHist Histogram // window occupancy per cycle
	CommitHist Histogram // instructions committed per cycle

	// Cycle accounting: cycles in which nothing committed, classified by
	// the reason observed at the window head.
	StallEmptyWindow uint64 // front end starved the window (fetch/refill)
	StallExecution   uint64 // head instruction still executing (latency/FU)

	// Functional unit usage: issues per class, and per-class capacity for
	// utilization accounting.
	FUIssued   [isa.NumFUClasses]uint64
	FUCapacity [isa.NumFUClasses]uint64 // units * cycles

	// Store buffer.
	StoreForwards uint64
	LoadsExecuted uint64

	// Optional cache model (zero when the always-hit assumption is used).
	DCacheAccesses uint64
	DCacheMisses   uint64
	ICacheAccesses uint64
	ICacheMisses   uint64

	// Policy controller (populated only when a policy spec is configured;
	// tagged omitempty so policy-free runs keep their exact historical JSON
	// encoding — the polyserve result store byte-compares encodings as a
	// determinism audit).
	EpochIPC       []float64 `json:"EpochIPC,omitempty"`       // per-epoch IPC trajectory
	PolicySwitches uint64    `json:"PolicySwitches,omitempty"` // epoch boundaries where the applied setting changed
}

// DCacheMissRate returns the data cache miss rate (0 with no accesses).
func (s *Sim) DCacheMissRate() float64 {
	if s.DCacheAccesses == 0 {
		return 0
	}
	return float64(s.DCacheMisses) / float64(s.DCacheAccesses)
}

// ICacheMissRate returns the instruction cache miss rate.
func (s *Sim) ICacheMissRate() float64 {
	if s.ICacheAccesses == 0 {
		return 0
	}
	return float64(s.ICacheMisses) / float64(s.ICacheAccesses)
}

// IPC returns committed instructions per cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns the fraction of committed conditional branches
// that were mispredicted (Table 1's "branch misprediction" column).
func (s *Sim) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// PVN returns the predictive value of a negative test: the probability
// that a low-confidence estimate is for a mispredicted branch. The paper
// calls this "the most important design parameter" for SEE confidence
// estimators.
func (s *Sim) PVN() float64 {
	if s.LowConf == 0 {
		return 0
	}
	return float64(s.LowConfMispred) / float64(s.LowConf)
}

// FetchOverhead returns fetched/committed — the paper reports 1.86 for the
// monopath baseline ("46% of the fetch cycles are wasted").
func (s *Sim) FetchOverhead() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Fetched) / float64(s.Committed)
}

// UselessInstructions returns the number of fetched instructions that did
// not commit.
func (s *Sim) UselessInstructions() uint64 {
	if s.Fetched < s.Committed {
		return 0
	}
	return s.Fetched - s.Committed
}

// FUUtilization returns issued/capacity for a unit class.
func (s *Sim) FUUtilization(c isa.FUClass) float64 {
	if s.FUCapacity[c] == 0 {
		return 0
	}
	return float64(s.FUIssued[c]) / float64(s.FUCapacity[c])
}

// AvgPaths returns the mean number of live paths per cycle.
func (s *Sim) AvgPaths() float64 { return s.PathHist.Mean() }

// PathsAtMost returns the fraction of cycles with at most n live paths
// (the paper: "SEE uses 3 paths or fewer approximately 75% of the time").
func (s *Sim) PathsAtMost(n int) float64 { return s.PathHist.FracAtMost(n) }

// Summary renders a human-readable multi-line report.
func (s *Sim) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles            %12d\n", s.Cycles)
	fmt.Fprintf(&b, "committed         %12d  (IPC %.3f)\n", s.Committed, s.IPC())
	fmt.Fprintf(&b, "fetched           %12d  (%.2fx committed)\n", s.Fetched, s.FetchOverhead())
	fmt.Fprintf(&b, "killed            %12d\n", s.Killed)
	fmt.Fprintf(&b, "cond branches     %12d  (mispredict %.2f%%)\n", s.CondBranches, 100*s.MispredictRate())
	fmt.Fprintf(&b, "low confidence    %12d  (PVN %.1f%%)\n", s.LowConf, 100*s.PVN())
	fmt.Fprintf(&b, "divergences       %12d  (blocked %d)\n", s.Divergences, s.DivergenceBlocked)
	if s.IndirectJumps > 0 {
		fmt.Fprintf(&b, "indirect jumps    %12d  (target mispredict %.2f%%)\n", s.IndirectJumps,
			100*float64(s.IndirectMispredicts)/float64(s.IndirectJumps))
	}
	fmt.Fprintf(&b, "avg live paths    %12.2f  (<=3 paths %.0f%% of cycles)\n", s.AvgPaths(), 100*s.PathsAtMost(3))
	fmt.Fprintf(&b, "window occupancy  %12.1f  avg entries\n", s.WindowHist.Mean())
	if s.Cycles > 0 {
		fmt.Fprintf(&b, "stall cycles      %11.1f%%  (%.1f%% empty window, %.1f%% execution)\n",
			100*float64(s.StallEmptyWindow+s.StallExecution)/float64(s.Cycles),
			100*float64(s.StallEmptyWindow)/float64(s.Cycles),
			100*float64(s.StallExecution)/float64(s.Cycles))
	}
	fmt.Fprintf(&b, "store forwards    %12d / %d loads\n", s.StoreForwards, s.LoadsExecuted)
	if s.DCacheAccesses > 0 {
		fmt.Fprintf(&b, "dcache            %12d accesses (miss %.1f%%)\n", s.DCacheAccesses, 100*s.DCacheMissRate())
	}
	if s.ICacheAccesses > 0 {
		fmt.Fprintf(&b, "icache            %12d accesses (miss %.1f%%)\n", s.ICacheAccesses, 100*s.ICacheMissRate())
	}
	for c := isa.FUClass(0); int(c) < isa.NumFUClasses; c++ {
		if s.FUCapacity[c] > 0 {
			fmt.Fprintf(&b, "util %-12s %11.1f%%\n", c.String(), 100*s.FUUtilization(c))
		}
	}
	return b.String()
}

// Histogram is a fixed-capacity integer histogram that also tracks the sum
// for mean computation. Values beyond the last bucket clamp into it.
type Histogram struct {
	buckets []uint64
	samples uint64
	sum     uint64
}

// NewHistogram creates a histogram with buckets for values 0..max.
func NewHistogram(max int) Histogram {
	return Histogram{buckets: make([]uint64, max+1)}
}

// Add records one sample of value v.
func (h *Histogram) Add(v int) {
	if h.buckets == nil {
		h.buckets = make([]uint64, 65)
	}
	if v < 0 {
		v = 0
	}
	h.sum += uint64(v)
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.samples++
}

// Samples returns the number of recorded samples.
func (h *Histogram) Samples() uint64 { return h.samples }

// MarshalJSON emits {mean, samples, sum, buckets} so histograms survive
// the machine-readable experiment output — and, paired with
// UnmarshalJSON, round-trip exactly. Exact round-tripping is what lets a
// remote worker ship a stats.Sim over the wire with the bit-identical
// result contract intact (polyserve's coordinator/worker mode).
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Mean    float64  `json:"mean"`
		Samples uint64   `json:"samples"`
		Sum     uint64   `json:"sum,omitempty"`
		Buckets []uint64 `json:"buckets,omitempty"`
	}{h.Mean(), h.samples, h.sum, h.buckets})
}

// UnmarshalJSON restores a histogram written by MarshalJSON. Legacy
// encodings without the "sum" field reconstruct it from mean×samples
// (exact for any realistic simulation length).
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w struct {
		Mean    float64  `json:"mean"`
		Samples uint64   `json:"samples"`
		Sum     uint64   `json:"sum"`
		Buckets []uint64 `json:"buckets"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.buckets = w.Buckets
	h.samples = w.Samples
	h.sum = w.Sum
	if h.sum == 0 && w.Mean > 0 && w.Samples > 0 {
		h.sum = uint64(math.Round(w.Mean * float64(w.Samples)))
	}
	return nil
}

// Mean returns the average sample value.
func (h *Histogram) Mean() float64 {
	if h.samples == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.samples)
}

// FracAtMost returns the fraction of samples with value <= n.
func (h *Histogram) FracAtMost(n int) float64 {
	if h.samples == 0 {
		return 0
	}
	if n >= len(h.buckets) {
		n = len(h.buckets) - 1
	}
	var c uint64
	for i := 0; i <= n; i++ {
		c += h.buckets[i]
	}
	return float64(c) / float64(h.samples)
}

// Bucket returns the count of samples with value v (clamped to range).
func (h *Histogram) Bucket(v int) uint64 {
	if v < 0 || h.buckets == nil {
		return 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	return h.buckets[v]
}

// HarmonicMeanIPC computes the harmonic mean the paper uses to average IPC
// across benchmarks. Zero values are skipped (they would otherwise
// dominate to zero).
func HarmonicMeanIPC(vals []float64) float64 {
	var inv float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			inv += 1 / v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / inv
}
