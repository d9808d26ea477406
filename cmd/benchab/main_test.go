package main

import (
	"slices"
	"strings"
	"testing"
)

// Canned BenchmarkCycleLoop ns/op pairs {head, base} from two full gate
// runs on a 2-vCPU Xeon host (Go 1.24).
var (
	// aaPairs ran the same binary on both sides.
	aaPairs = [][2]float64{
		{1333, 1621}, {1659, 1231}, {1471, 1442}, {1587, 1354}, {1445, 1113},
		{1308, 1740}, {1650, 1720}, {1447, 1748}, {1743, 1736}, {1630, 1537},
		{1661, 1410}, {1435, 1511}, {1184, 1079}, {1563, 1258}, {1644, 1141},
		{1524, 1487}, {1477, 1475}, {1517, 1361}, {1174, 1461}, {1015, 1038},
	}
	// plantedPairs ran, as the head, a build whose Machine.step spins an
	// xorshift for about 200 ns, which raised the median of ten
	// BenchmarkCycleLoop runs by about 20%.
	plantedPairs = [][2]float64{
		{1837, 1549}, {1603, 1347}, {1768, 1627}, {1849, 1608}, {1599, 1185},
		{1405, 1397}, {1507, 1503}, {1645, 1336}, {1469, 1418}, {1609, 1224},
		{1182, 1104}, {1314, 1001}, {1234, 1022}, {1731, 1181}, {1312, 1301},
		{1783, 1458}, {1654, 1465}, {1530, 1631}, {1714, 1222}, {1389, 1197},
	}
)

func ratios(pairs [][2]float64) []float64 {
	var r []float64
	for _, p := range pairs {
		r = append(r, p[0]/p[1])
	}
	return r
}

func TestSlower(t *testing.T) {
	tied := make([]float64, pairs)
	for i := range tied {
		tied[i] = 1
	}
	for _, tc := range []struct {
		name   string
		ratios []float64
		want   bool
	}{
		{"A/A", ratios(aaPairs), false},
		{"planted +20%", ratios(plantedPairs), true},
		{"all tied", tied, false},
	} {
		in := slices.Clone(tc.ratios)
		bad, med, lo := slower(tc.ratios)
		if bad != tc.want {
			t.Errorf("%s: slower = %v (median %.3f, lower bound %.3f), want %v", tc.name, bad, med, lo, tc.want)
		}
		if lo > med {
			t.Errorf("%s: lower bound %.3f above the median %.3f", tc.name, lo, med)
		}
		if again, _, lo2 := slower(tc.ratios); again != bad || lo2 != lo {
			t.Errorf("%s: a second call gave %v, %.4f; want %v, %.4f", tc.name, again, lo2, bad, lo)
		}
		if !slices.Equal(in, tc.ratios) {
			t.Errorf("%s: slower reordered its input", tc.name)
		}
	}
}

func TestScaling(t *testing.T) {
	for _, tc := range []struct {
		speedups []float64
		cpus     int
		want     bool
	}{
		{[]float64{1.4, 1.3, 1.4, 1.5, 1.4}, 4, false},
		{[]float64{1.4, 1.3, 1.4, 1.5, 1.4}, 2, true},
		{[]float64{1.6, 1.2, 1.7, 1.5, 1.4}, 8, true},
	} {
		ok, msg := scaling(tc.speedups, tc.cpus)
		if ok != tc.want {
			t.Errorf("scaling(%v, %d CPUs) = %v (%s), want %v", tc.speedups, tc.cpus, ok, msg, tc.want)
		}
		if tc.cpus < scalingCPUs && !strings.Contains(msg, "reported only") {
			t.Errorf("scaling on %d CPUs: %q does not say the floor only reports", tc.cpus, msg)
		}
	}
}

func TestParse(t *testing.T) {
	out := []byte(`goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkCycleLoop    	  868149	      1380 ns/op
BenchmarkRenamer      	145212345	         8.123 ns/op
BenchmarkHarnessSweep 	       5	 222711588 ns/op	   2345678 sim-insts/s
BenchmarkHarnessParallel/j1-2         	      30	  40000000 ns/op	 5000000 sim-insts/s
BenchmarkHarnessParallel/j4-2         	      50	  24000000 ns/op	 8000000 sim-insts/s
PASS
`)
	want := map[string]float64{
		"BenchmarkCycleLoop":          1380,
		"BenchmarkRenamer":            8.123,
		"BenchmarkHarnessSweep":       222711588,
		"BenchmarkHarnessParallel/j1": 40000000,
		"BenchmarkHarnessParallel/j4": 24000000,
	}
	got := parse(out)
	if len(got) != len(want) {
		t.Fatalf("parse found %v, want %v", got, want)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s: %v ns/op, want %v", name, got[name], ns)
		}
	}
}
