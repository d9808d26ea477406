package policy

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/registry"
)

// TestRegistryRejectsBadEntries covers what Register checks beyond the
// generic registry contract (internal/registry): both a factory and a
// normalizer are required, since Normalize runs on every config
// validation.
func TestRegistryRejectsBadEntries(t *testing.T) {
	factory := func(Spec) (Controller, error) { return nil, nil }
	norm := func(s Spec) (Spec, error) { return s, nil }
	cases := []struct {
		name  string
		e     Entry
		field string
	}{
		{"nil factory", Entry{Kind: "nilfactory", Normalize: norm}, "New"},
		{"nil normalizer", Entry{Kind: "nilnorm", New: factory}, "Normalize"},
		{"case-folded duplicate", Entry{Kind: "STATIC", Normalize: norm, New: factory}, "Kind"},
	}
	for _, tc := range cases {
		var re *registry.Error
		if err := Register(tc.e); !errors.As(err, &re) || re.Field != tc.field {
			t.Errorf("%s: want *registry.Error on %s, got %v", tc.name, tc.field, err)
		}
	}
	if _, ok := Lookup("nilnorm"); ok {
		t.Error("an entry without a normalizer was registered")
	}
}

func TestKindsSortedAndComplete(t *testing.T) {
	kinds := Kinds()
	want := map[string]bool{"static": false, "oracle": false, "online": false}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatalf("Kinds not sorted: %v", kinds)
		}
	}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("built-in kind %q missing from Kinds(): %v", k, kinds)
		}
	}
}

func TestNormalizeDoesNotAlias(t *testing.T) {
	in := Spec{Kind: "online", Candidates: []Setting{{}, {MaxDivergences: -1}}, Params: map[string]int{"explore_every": 4}}
	ns, err := Normalize(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Candidates[0].FetchWidth = 99
	in.Params["explore_every"] = 99
	if ns.Candidates[0].FetchWidth == 99 {
		t.Fatal("normalized spec aliases input candidates")
	}
	if ns.Params["explore_every"] == 99 {
		t.Fatal("normalized spec aliases input params")
	}
	if ns.EpochCycles != DefaultEpochCycles {
		t.Fatalf("EpochCycles default not filled: %d", ns.EpochCycles)
	}
	// Defaults are filled so equivalent specs canonicalize identically.
	if ns.Params["hysteresis_milli"] != 50 || ns.Params["ema_milli"] != 300 {
		t.Fatalf("online defaults not filled: %v", ns.Params)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{Kind: "nosuch"},
		{Kind: "static", EpochCycles: 1},
		{Kind: "static", EpochCycles: MaxEpochCycles + 1},
		{Kind: "static", Candidates: []Setting{{}, {}}},
		{Kind: "static", Candidates: []Setting{{ConfThreshold: -2}}},
		{Kind: "static", Candidates: []Setting{{ConfThreshold: 256}}},
		{Kind: "static", Candidates: []Setting{{MaxDivergences: -2}}},
		{Kind: "static", Candidates: []Setting{{FetchWidth: -1}}},
		{Kind: "static", Params: map[string]int{"bogus": 1}},
		{Kind: "oracle"},
		{Kind: "oracle", Candidates: []Setting{{}}, Params: map[string]int{"sched_len": 0}},
		{Kind: "oracle", Candidates: []Setting{{}}, Params: map[string]int{"sched_len": 2, "s0": 0, "s1": 1}},
		{Kind: "oracle", Candidates: []Setting{{}}, Params: map[string]int{"sched_len": 1, "s0": 0, "s5": 0}},
		{Kind: "online"},
		{Kind: "online", Candidates: []Setting{{}}, Params: map[string]int{"explore_every": 1}},
		{Kind: "online", Candidates: []Setting{{}}, Params: map[string]int{"hysteresis_milli": 1001}},
		{Kind: "online", Candidates: []Setting{{}}, Params: map[string]int{"ema_milli": 0}},
		{Kind: "online", Candidates: []Setting{{}}, Params: map[string]int{"vifr_fetch": 0}},
	}
	for _, s := range cases {
		if _, err := Normalize(s); err == nil {
			t.Errorf("Normalize(%+v) accepted", s)
		}
	}
}

func TestStaticController(t *testing.T) {
	c, err := Build(Spec{Kind: "static", Candidates: []Setting{{MaxDivergences: 1, ConfThreshold: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	want := Setting{MaxDivergences: 1, ConfThreshold: 3}
	if c.Initial() != want {
		t.Fatalf("Initial = %+v", c.Initial())
	}
	if got := c.Decide(EpochStats{Epoch: 0, IPC: 1.0}); got != want {
		t.Fatalf("Decide = %+v", got)
	}
	// Empty candidate list canonicalizes to one inert setting.
	ns, err := Normalize(Spec{Kind: "static"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.Candidates) != 1 || ns.Candidates[0] != (Setting{}) {
		t.Fatalf("static default candidates = %+v", ns.Candidates)
	}
}

func TestOracleSchedule(t *testing.T) {
	cands := []Setting{{}, {MaxDivergences: -1}, {MaxDivergences: 1}}
	sched := []int{0, 2, 1, 1}
	c, err := Build(Spec{Kind: "oracle", Candidates: cands, Params: OracleParams(sched)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Initial() != cands[0] {
		t.Fatalf("Initial = %+v", c.Initial())
	}
	// Decide(epoch e) picks the setting for epoch e+1; beyond the
	// schedule the last entry repeats.
	wantIdx := []int{2, 1, 1, 1, 1, 1}
	for e, wi := range wantIdx {
		if got := c.Decide(EpochStats{Epoch: e}); got != cands[wi] {
			t.Fatalf("Decide(epoch %d) = %+v, want candidate %d", e, got, wi)
		}
	}
	if got := ScheduleString(sched); got != "0,2,1,1" {
		t.Fatalf("ScheduleString = %q", got)
	}
}

func TestOnlineConvergesToBestArm(t *testing.T) {
	cands := []Setting{{}, {MaxDivergences: -1}}
	c, err := Build(Spec{Kind: "online", Candidates: cands, Params: map[string]int{"explore_every": 4}})
	if err != nil {
		t.Fatal(err)
	}
	oc := c.(*onlineController)
	if c.Initial() != cands[0] {
		t.Fatalf("Initial = %+v", c.Initial())
	}
	// Candidate 1 pays twice the IPC of candidate 0; after the probe
	// epochs sample it, the incumbent must move and stay there.
	ipc := func(arm int) float64 {
		if arm == 1 {
			return 2.0
		}
		return 1.0
	}
	for e := 0; e < 40; e++ {
		c.Decide(EpochStats{Epoch: e, IPC: ipc(oc.active)})
	}
	if oc.incumbent != 1 {
		t.Fatalf("incumbent = %d after 40 epochs, want 1 (rewards %v)", oc.incumbent, oc.reward)
	}
}

func TestOnlineHysteresisHoldsIncumbent(t *testing.T) {
	cands := []Setting{{}, {MaxDivergences: -1}}
	c, err := Build(Spec{Kind: "online", Candidates: cands, Params: map[string]int{
		"explore_every": 4, "hysteresis_milli": 200,
	}})
	if err != nil {
		t.Fatal(err)
	}
	oc := c.(*onlineController)
	// Candidate 1 is only 5% better — inside the 20% hysteresis band, so
	// the incumbent must never move.
	ipc := func(arm int) float64 {
		if arm == 1 {
			return 1.05
		}
		return 1.0
	}
	for e := 0; e < 60; e++ {
		c.Decide(EpochStats{Epoch: e, IPC: ipc(oc.active)})
		if oc.incumbent != 0 {
			t.Fatalf("incumbent switched to %d at epoch %d despite hysteresis", oc.incumbent, e)
		}
	}
}

func TestOnlineVIFRThrottle(t *testing.T) {
	c, err := Build(Spec{Kind: "online", Candidates: []Setting{{}}, Params: map[string]int{
		"vifr_epochs": 2, "vifr_lowconf_milli": 500, "vifr_fetch": 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One low-confidence epoch is not enough.
	if got := c.Decide(EpochStats{Epoch: 0, LowConfRate: 0.9}); got.FetchWidth != 0 {
		t.Fatalf("throttled after one epoch: %+v", got)
	}
	// The second consecutive one trips the throttle.
	if got := c.Decide(EpochStats{Epoch: 1, LowConfRate: 0.9}); got.FetchWidth != 4 {
		t.Fatalf("not throttled after streak: %+v", got)
	}
	// Recovery releases it immediately.
	if got := c.Decide(EpochStats{Epoch: 2, LowConfRate: 0.1}); got.FetchWidth != 0 {
		t.Fatalf("throttle not released: %+v", got)
	}
}

func TestOnlineDeterministicAndResettable(t *testing.T) {
	build := func() Controller {
		c, err := Build(Spec{Kind: "online", Candidates: []Setting{{}, {MaxDivergences: -1}, {MaxDivergences: 1}}, Params: map[string]int{
			"explore_every": 3, "vifr_epochs": 2,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	stats := make([]EpochStats, 50)
	for i := range stats {
		stats[i] = EpochStats{Epoch: i, IPC: float64((i*7)%13) / 4, LowConfRate: float64((i*3)%10) / 10}
	}
	run := func(c Controller) []Setting {
		out := []Setting{c.Initial()}
		for _, st := range stats {
			out = append(out, c.Decide(st))
		}
		return out
	}
	a, b := build(), build()
	sa, sb := run(a), run(b)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("two identical controllers diverged on the same stats stream")
	}
	// Reset restores the initial trajectory on the same instance.
	a.Reset()
	if sr := run(a); !reflect.DeepEqual(sa, sr) {
		t.Fatal("Reset did not restore the initial trajectory")
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 {
		t.Fatal("no presets")
	}
	for _, n := range names {
		if _, ok := PresetSetting(n); !ok {
			t.Fatalf("preset %q missing", n)
		}
	}
	if s, _ := PresetSetting("monopath"); s.MaxDivergences != -1 {
		t.Fatalf("monopath preset = %+v", s)
	}
	if _, ok := PresetSetting("nosuch"); ok {
		t.Fatal("unknown preset resolved")
	}
}
