package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestIPCAndRates(t *testing.T) {
	s := &Sim{
		Cycles: 1000, Committed: 2500, Fetched: 4650,
		CondBranches: 500, Mispredicts: 50,
		LowConf: 100, LowConfMispred: 40,
	}
	if got := s.IPC(); got != 2.5 {
		t.Errorf("IPC = %v", got)
	}
	if got := s.MispredictRate(); got != 0.1 {
		t.Errorf("mispredict rate = %v", got)
	}
	if got := s.PVN(); got != 0.4 {
		t.Errorf("PVN = %v", got)
	}
	if got := s.FetchOverhead(); got != 1.86 {
		t.Errorf("fetch overhead = %v", got)
	}
	if got := s.UselessInstructions(); got != 2150 {
		t.Errorf("useless = %v", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	s := &Sim{}
	if s.IPC() != 0 || s.MispredictRate() != 0 || s.PVN() != 0 || s.FetchOverhead() != 0 {
		t.Error("zero-denominator stats must be 0")
	}
	if s.UselessInstructions() != 0 {
		t.Error("useless with no activity must be 0")
	}
	if s.FUUtilization(isa.ClassMem) != 0 {
		t.Error("FU utilization with no capacity must be 0")
	}
}

func TestFUUtilization(t *testing.T) {
	s := &Sim{}
	s.FUIssued[isa.ClassIntEither] = 300
	s.FUCapacity[isa.ClassIntEither] = 400
	if got := s.FUUtilization(isa.ClassIntEither); got != 0.75 {
		t.Errorf("utilization = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []int{1, 1, 2, 3, 3, 3, 100, -5} {
		h.Add(v)
	}
	if h.Samples() != 8 {
		t.Errorf("samples = %d", h.Samples())
	}
	if h.Bucket(1) != 2 || h.Bucket(3) != 3 {
		t.Error("bucket counts wrong")
	}
	if h.Bucket(8) != 1 { // 100 clamps into last bucket
		t.Error("overflow should clamp into last bucket")
	}
	if h.Bucket(0) != 1 { // -5 clamps to 0
		t.Error("negative should clamp to 0")
	}
	if h.Bucket(-1) != 0 || h.Bucket(100) != 1 {
		t.Error("bucket accessor clamping")
	}
	// mean over 1,1,2,3,3,3,100,0 = 113/8
	if got := h.Mean(); math.Abs(got-113.0/8) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if got := h.FracAtMost(3); math.Abs(got-7.0/8) > 1e-9 {
		t.Errorf("frac<=3 = %v", got)
	}
	if got := h.FracAtMost(1000); got != 1 {
		t.Errorf("frac<=all = %v", got)
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.FracAtMost(3) != 0 || h.Samples() != 0 {
		t.Error("zero histogram must report zeros")
	}
	h.Add(2) // lazily allocates
	if h.Samples() != 1 || h.Bucket(2) != 1 {
		t.Error("zero-value histogram must be usable")
	}
}

func TestPathStats(t *testing.T) {
	s := &Sim{PathHist: NewHistogram(16)}
	for i := 0; i < 75; i++ {
		s.PathHist.Add(3)
	}
	for i := 0; i < 25; i++ {
		s.PathHist.Add(5)
	}
	if got := s.PathsAtMost(3); got != 0.75 {
		t.Errorf("paths<=3 = %v", got)
	}
	if got := s.AvgPaths(); got != 3.5 {
		t.Errorf("avg paths = %v", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMeanIPC([]float64{2, 2, 2}); got != 2 {
		t.Errorf("harmonic of equal = %v", got)
	}
	got := HarmonicMeanIPC([]float64{1, 2})
	if math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("harmonic(1,2) = %v", got)
	}
	if got := HarmonicMeanIPC([]float64{0, 0}); got != 0 {
		t.Errorf("harmonic of zeros = %v", got)
	}
	// Zeros skipped.
	if got := HarmonicMeanIPC([]float64{0, 3}); got != 3 {
		t.Errorf("harmonic skipping zeros = %v", got)
	}
	// Harmonic <= arithmetic mean always.
	vals := []float64{1.3, 2.9, 0.8, 4.4}
	var am float64
	for _, v := range vals {
		am += v
	}
	am /= float64(len(vals))
	if HarmonicMeanIPC(vals) > am {
		t.Error("harmonic mean exceeds arithmetic mean")
	}
}

func TestSummaryMentionsKeyMetrics(t *testing.T) {
	s := &Sim{Cycles: 10, Committed: 20, Fetched: 30, CondBranches: 5, Mispredicts: 1}
	s.FUCapacity[isa.ClassMem] = 40
	s.FUIssued[isa.ClassMem] = 10
	out := s.Summary()
	for _, want := range []string{"IPC", "mispredict", "PVN", "paths", "mem"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
