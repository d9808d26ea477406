package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// TestVerifyArchStateNamesFirstMismatch corrupts a cleanly finished
// machine's committed state and checks that VerifyArchState still
// reports exactly what the word-by-word compare reported: the register,
// or the lowest differing memory word, with its value and the
// reference's. The reference run is shared through isa.TraceCached, so
// only the machine's own state is touched.
func TestVerifyArchStateNamesFirstMismatch(t *testing.T) {
	bm, err := workload.ByName("gcc", 1000)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.MustGenerate(bm.Spec)
	n := prog.MemWords
	memErr := func(m *Machine, a int) string {
		return fmt.Sprintf("pipeline: mem[%d] = %d, reference %d", a, m.mem.Load(a), m.interp.Mem.Load(a))
	}
	flip := func(m *Machine, a int, mask int64) { m.mem.Store(a, m.mem.Load(a)^mask) }
	cases := []struct {
		name    string
		corrupt func(m *Machine) string // returns the wanted error text
	}{
		{"untouched", func(m *Machine) string { return "" }},
		{"first word", func(m *Machine) string {
			flip(m, 0, 1)
			return memErr(m, 0)
		}},
		{"middle word", func(m *Machine) string {
			flip(m, n/2, 0x5a5a)
			return memErr(m, n/2)
		}},
		{"last word", func(m *Machine) string {
			flip(m, n-1, -1)
			return memErr(m, n-1)
		}},
		{"two words", func(m *Machine) string {
			flip(m, 2*n/3, 3)
			flip(m, n/3, 5)
			return memErr(m, n/3)
		}},
		{"register", func(m *Machine) string {
			const r = isa.Reg(3)
			m.physVal[m.retireMap.Get(r)] += 7
			return fmt.Sprintf("pipeline: r%d = %d, reference %d", r, m.FinalRegs()[r], m.interp.Regs[r])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(prog, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			want := tc.corrupt(m)
			err = m.VerifyArchState()
			switch {
			case want == "" && err != nil:
				t.Fatalf("untouched machine: %v", err)
			case want != "" && err == nil:
				t.Fatalf("corruption not detected, want %q", want)
			case want != "" && err.Error() != want:
				t.Fatalf("error %q, want %q", err, want)
			}
		})
	}
}
