package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// TestSimulationNeverWritesProgramData: every memory reads the full
// pages of its program's DataInit in place, and the pages past it from
// one zero page shared by all programs. Verify skips the pages a machine
// and its reference still share, so that check is complete only while
// no simulation writes either. Two goroutines at once run every Figure 8
// model, plus the audit configs with caches and MRC and with small
// structures, over each Table 1 stand-in; afterwards every DataInit must
// hash as before and the zero page must read zero. Under -race, a write
// to shared data from one goroutine is also reported against the
// other's reads.
func TestSimulationNeverWritesProgramData(t *testing.T) {
	audit := auditConfigs()
	cfgs := append(fig8Models(), audit["caches"], audit["small"])
	for _, insts := range []uint64{1_000, 30_000} {
		for _, bm := range workload.Suite(insts) {
			prog := workload.MustGenerate(bm.Spec)
			before := dataHash(prog)
			var wg sync.WaitGroup
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, cfg := range cfgs {
						m, err := New(prog, cfg)
						if err == nil {
							err = m.Run()
						}
						if err == nil {
							err = m.VerifyArchState()
						}
						if err != nil {
							t.Errorf("%s at %d: %v", bm.Spec.Name, insts, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if dataHash(prog) != before {
				t.Errorf("%s at %d: simulation wrote DataInit", bm.Spec.Name, insts)
			}
		}
	}
	zero := isa.NewMemory(&isa.Program{MemWords: isa.PageWords})
	for a := range zero.Words() {
		if v := zero.Load(a); v != 0 {
			t.Fatalf("zero page word %d = %d after simulation", a, v)
		}
	}
}

// fig8Models returns the six machine models of Figure 8: monopath,
// oracle prediction, and SEE and dual-path each under oracle and JRS
// confidence.
func fig8Models() []Config {
	mono := DefaultConfig()
	mono.Mode = Monopath
	mono.Confidence.Kind = ConfAlwaysHigh
	oracle := mono
	oracle.Predictor.Kind = PredOracle
	seeOracle := DefaultConfig()
	seeOracle.Confidence.Kind = ConfOracle
	see := DefaultConfig()
	dualOracle := seeOracle
	dualOracle.MaxDivergences = 1
	dual := see
	dual.MaxDivergences = 1
	return []Config{mono, oracle, seeOracle, see, dualOracle, dual}
}

// dataHash is the sha256 of p's DataInit.
func dataHash(p *isa.Program) [sha256.Size]byte {
	buf := make([]byte, 0, 8*len(p.DataInit))
	for _, w := range p.DataInit {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	return sha256.Sum256(buf)
}
