package btrace

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/workload"
)

// fidelityInsts is the dynamic length of the round-trip fidelity gate —
// long enough for gshare to reach steady state on every family, short
// enough to keep the gate in tier-1 time.
const fidelityInsts = 300_000

// TestRoundTripFidelity is the acceptance gate of the trace pipeline:
// every workload family is exported to a PBT1 stream, read back,
// characterized, and re-synthesized, and the stand-in's gshare
// misprediction rate at RefHistBits must match the original trace's
// within ±10% relative. It is the only fidelity gate:
// scripts/char_smoke.sh runs one round trip through the CLIs, ungated.
func TestRoundTripFidelity(t *testing.T) {
	names := append(workload.Names(), "ptrchase", "interp-dispatch", "branchless")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := workload.ByName(name, fidelityInsts)
			if err != nil {
				t.Fatal(err)
			}
			p, err := workload.Generate(b.Spec)
			if err != nil {
				t.Fatal(err)
			}

			// Full file round trip: export, re-read, characterize.
			var buf bytes.Buffer
			n, digest, err := WriteProgramTrace(&buf, p, fidelityInsts, name, true)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			r, err := NewReader(&buf)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			ch, err := Characterize(r)
			if err != nil {
				t.Fatalf("characterize: %v", err)
			}
			if ch.Records != n {
				t.Fatalf("characterized %d records, exported %d", ch.Records, n)
			}
			if ch.Digest != digest {
				t.Fatalf("round-trip digest %s != export digest %s", ch.Digest, digest)
			}

			// The direct (no file) profile must be identical — same digest,
			// same rate.
			direct, err := CharacterizeProgram(p, fidelityInsts, name)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Digest != ch.Digest || direct.Rate != ch.Rate {
				t.Fatalf("CharacterizeProgram diverges from file round trip: digest %s/%s rate %v/%v",
					direct.Digest, ch.Digest, direct.Rate, ch.Rate)
			}

			if ch.Rate < 0.005 {
				t.Logf("%s: rate %.4f below the synthesis floor; fidelity gate not applicable", name, ch.Rate)
				return
			}
			bench, err := Synthesize(ch, fidelityInsts)
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			if bench.Spec.Name != SynthName(ch.Digest) {
				t.Fatalf("synthesized name %q, want %q", bench.Spec.Name, SynthName(ch.Digest))
			}
			sp, err := workload.Generate(bench.Spec)
			if err != nil {
				t.Fatal(err)
			}
			rate, _, err := workload.GshareMispredictRate(sp, RefHistBits, fidelityInsts)
			if err != nil {
				t.Fatal(err)
			}
			rel := (rate - ch.Rate) / ch.Rate
			t.Logf("%s: trace %.4f, stand-in %.4f (%+.1f%% relative)", name, ch.Rate, rate, 100*rel)
			if rel > 0.10 || rel < -0.10 {
				t.Errorf("%s: stand-in rate %.4f vs trace %.4f: relative error %+.1f%% exceeds ±10%%",
					name, rate, ch.Rate, 100*rel)
			}
		})
	}
}

// TestSynthesizeDeterministic: the same characterization must synthesize
// the byte-identical spec (content-addressed workloads cannot drift).
func TestSynthesizeDeterministic(t *testing.T) {
	b, err := workload.ByName("perl", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Generate(b.Spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := CharacterizeProgram(p, 100_000, "perl")
	if err != nil {
		t.Fatal(err)
	}
	b1, err1 := Synthesize(ch, 100_000)
	b2, err2 := Synthesize(ch, 100_000)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
	}
	if b1.Spec.Name != b2.Spec.Name || b1.Spec.Seed != b2.Spec.Seed ||
		len(b1.Spec.Branches) != len(b2.Spec.Branches) || b1.PaperMispredict != b2.PaperMispredict {
		t.Fatalf("nondeterministic synthesis:\n%+v\n%+v", b1.Spec, b2.Spec)
	}
	for i := range b1.Spec.Branches {
		if b1.Spec.Branches[i] != b2.Spec.Branches[i] {
			t.Fatalf("branch %d differs: %+v vs %+v", i, b1.Spec.Branches[i], b2.Spec.Branches[i])
		}
	}
}

func TestSynthNameAndSeed(t *testing.T) {
	digest := "deadbeefcafe0123456789abcdef0123456789abcdef0123456789abcdef0123"
	if got := SynthName(digest); got != "trace-deadbeefcafe" {
		t.Fatalf("SynthName = %q", got)
	}
	if seedFromDigest(digest) == seedFromDigest("0000aa"+digest[6:]) {
		t.Fatal("distinct digests must give distinct seeds")
	}
	if seedFromDigest("zzzz") != 1 {
		t.Fatalf("non-hex digest must fall back to seed 1")
	}
}

// TestCalibrationErrorSurfaced: an impossible target (a misprediction
// rate above the Bernoulli coin-flip ceiling — an adversarially
// anti-correlated trace) must surface the typed near-miss, with the
// achievable range populated, not a silent clamp.
func TestCalibrationErrorSurfaced(t *testing.T) {
	ch := &Characterization{
		Digest:    "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff",
		Records:   100_000,
		Cond:      100_000,
		Sites:     10,
		TakenRate: 0.95,
		Rate:      0.85, // beyond any Bernoulli stand-in's ~0.5 ceiling
		HistCurve: []HistPoint{{Bits: 2, Rate: 0.85}, {Bits: RefHistBits, Rate: 0.85}},
	}
	ch.BiasHist[BiasBins-1] = 1.0 // all sites in [0.95, 1.0)
	ch.MeanBias = 0.975

	bench, err := Synthesize(ch, 100_000)
	if err == nil {
		t.Fatal("Synthesize must report the unreachable target")
	}
	var ce *workload.CalibrationError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not wrap *workload.CalibrationError", err)
	}
	if ce.Lo < 0 || ce.Hi >= ce.Target || ce.Tolerance <= 0 {
		t.Fatalf("near-miss range not populated: %+v", ce)
	}
	// The best candidate still comes back for inspection.
	if bench.Spec.Name != SynthName(ch.Digest) || len(bench.Spec.Branches) == 0 {
		t.Fatalf("near-miss benchmark not returned: %+v", bench.Spec)
	}
}
