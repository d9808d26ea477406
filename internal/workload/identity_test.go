package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/isa"
)

// programIdentity pins every generated program word for word: per
// workload name, the sha256 over (Name, MemWords, data, Code) of its
// programs at identityLengths × identitySeeds, in that order. A generator
// edit that moves one instruction or data word fails here in seconds
// instead of in a full experiments regeneration. The values were recorded
// before generation was restructured to build each program once; a
// deliberate generator change re-pins them and regenerates every golden
// table.
var programIdentity = map[string]string{
	"compress":        "ebf7ac7f93ea1477a15ba7ad137045ac310238341373fb76e26d488a002acd41",
	"gcc":             "63306cf718355a1df095a74a161f5f56af8a1b62aefe072b46bd4edb3e6dea78",
	"perl":            "1e2bf9fd059a7ef7e977dcab6f69bbfe02cab467f3d4ed9ed2edc7821eb8f553",
	"go":              "2c1ea73c415bff5bc1eface3f933f28940002c32d07202ab960154a030aae9d9",
	"m88ksim":         "f96873bf3e1efc2f4e753d1719af1af4eda9203a65d15bc733257cbd4248a492",
	"xlisp":           "0f1b73fd8b94379aec426dbd455a0d413467e63f39cd19f49b8167f929ed3a57",
	"vortex":          "32eb4fc6fe81c146f36bf72328b2ac9a80bee55c7b88407737ebd64aed78ed3a",
	"jpeg":            "5ccffec7da118d908f201794babc4787241facef5513960129cc347836d3d310",
	"ptrchase":        "2b7fa424c7f2574e807cbb13c580f4a5c2218dc94957be47d5f13bf01690022a",
	"interp-dispatch": "13e11a39ce436e0dc9321426557f75684ebbbd234f664981f48937b345175d67",
	"branchless":      "60e87ead0ed39aa955c761d6be252792a4197eb875392484ce02e64b39d6d001",
	"m88ksim-phased":  "71d129f4b43a9ea34cd9944e6a98be899a931172dd59e393386a79734d03e6cd",
}

var identityLengths = []uint64{1_000, 40_000, 400_000}

// identitySeeds are the harness's replicate seed offsets: replicate r
// generates with Spec.Seed + 1000·r.
var identitySeeds = []int64{0, 1000, 2000, 3000, 4000, 5000}

// appendIdentity appends p's identity fields to buf in a fixed little-endian
// layout with length prefixes, so no two programs share an encoding. The
// data is the image memory holds at reset, the packed region's words and
// then DataInit's, under one length prefix: the pins were recorded when
// every data word was in DataInit.
func appendIdentity(buf []byte, p *isa.Program) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, uint64(len(p.Name)))
	buf = append(buf, p.Name...)
	buf = le.AppendUint64(buf, uint64(p.MemWords))
	buf = le.AppendUint64(buf, uint64(p.PackedWords()+len(p.DataInit)))
	for a := range p.PackedWords() {
		buf = le.AppendUint64(buf, uint64(p.PackedWord(a)))
	}
	for _, w := range p.DataInit {
		buf = le.AppendUint64(buf, uint64(w))
	}
	buf = le.AppendUint64(buf, uint64(len(p.Code)))
	for _, in := range p.Code {
		buf = append(buf, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2))
		buf = le.AppendUint64(buf, uint64(in.Imm))
		buf = le.AppendUint32(buf, uint32(in.Target))
	}
	return buf
}

func TestGeneratedProgramsIdentical(t *testing.T) {
	for _, name := range AllNames() {
		h := sha256.New()
		var buf []byte
		for _, insts := range identityLengths {
			bm, err := ByName(name, insts)
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range identitySeeds {
				spec := bm.Spec
				spec.Seed += off
				p, err := Generate(spec)
				if err != nil {
					t.Fatalf("%s/%d/+%d: %v", name, insts, off, err)
				}
				buf = appendIdentity(buf[:0], p)
				h.Write(buf)
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := programIdentity[name]; got != want {
			t.Errorf("%s: generated programs hash %s, want %s", name, got, want)
		}
	}
	if len(programIdentity) != len(AllNames()) {
		t.Errorf("programIdentity pins %d workloads, AllNames has %d", len(programIdentity), len(AllNames()))
	}
}
