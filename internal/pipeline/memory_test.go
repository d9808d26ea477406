package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// TestSimulationNeverWritesProgramData: every memory reads the pages of
// its program's packed region that have been expanded, and the full
// pages of its DataInit, in place, and the pages past them from one zero
// page shared by all programs. Verify skips the pages a machine and its
// reference still share, so that check is complete only while no
// simulation writes any of them. Two goroutines at once run every Figure
// 8 model, plus the audit configs with caches and MRC and with small
// structures, over each Table 1 stand-in; afterwards the packed words,
// DataInit, and every word of the packed region as a memory reads it
// (through the pages the runs expanded, shared by all the program's
// memories) must hash as before, and the zero page must read zero.
// Under -race, a write to shared data from one goroutine is also
// reported against the other's reads.
func TestSimulationNeverWritesProgramData(t *testing.T) {
	audit := auditConfigs()
	cfgs := append(fig8Models(), audit["caches"], audit["small"])
	for _, insts := range []uint64{1_000, 30_000} {
		for _, bm := range workload.Suite(insts) {
			prog := workload.MustGenerate(bm.Spec)
			before := dataHash(prog, prog.PackedWord)
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
			if dataHash(prog, isa.NewMemory(prog).Load) != before {
				t.Errorf("%s at %d: simulation wrote the program's data", bm.Spec.Name, insts)
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

// dataHash is the sha256 of p's packed words, its DataInit, and each
// word of its packed region as word reads it. Reading with p.PackedWord
// decodes the packed words and expands nothing; reading through a
// memory reads every page the simulations expanded, and expands the rest.
func dataHash(p *isa.Program, word func(a int) int64) [sha256.Size]byte {
	buf := make([]byte, 0, 8*(len(p.Packed)+len(p.DataInit)+p.PackedWords()))
	for _, w := range p.Packed {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range p.DataInit {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	for a := range p.PackedWords() {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(word(a)))
	}
	return sha256.Sum256(buf)
}

// TestConcurrentPageExpansion: interpreters and machines of one program
// start at once while none of its packed pages is expanded, so several
// goroutines expand the same pages at the same time, and machines read
// and verify against the shared reference memory while others expand.
// Each round uses a fresh copy of the program, with an empty page cache,
// and every run must reach the reference's final state. Under -race,
// expansion that is not race-free is reported.
func TestConcurrentPageExpansion(t *testing.T) {
	bm, err := workload.ByName("m88ksim", 60_000)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustGenerate(bm.Spec)
	cfgs := fig8Models()
	for round := range 3 {
		prog := &isa.Program{Name: gen.Name, Code: gen.Code, Packed: gen.Packed, DataInit: gen.DataInit, MemWords: gen.MemWords}
		start := make(chan struct{})
		var wg sync.WaitGroup
		interps := make([]*isa.Interp, 2)
		for i := range interps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				interps[i] = isa.NewInterp(prog)
				if err := interps[i].Run(1 << 24); err != nil {
					t.Error(err)
				}
			}()
		}
		for _, cfg := range cfgs[:3] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				m, err := New(prog, cfg)
				if err == nil {
					err = m.Run()
				}
				if err == nil {
					err = m.VerifyArchState()
				}
				if err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		_, ref, err := isa.TraceCached(prog, DefaultRefCap)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range interps {
			if it.Regs != ref.Regs || it.Mem.Diff(ref.Mem) >= 0 {
				t.Errorf("round %d: an interpreter's final state differs from the reference", round)
			}
		}
		if dataHash(prog, isa.NewMemory(prog).Load) != dataHash(gen, gen.PackedWord) {
			t.Errorf("round %d: expanded pages differ from the packed words", round)
		}
	}
}
