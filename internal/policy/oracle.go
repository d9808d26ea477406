package policy

import (
	"fmt"

	"repro/internal/registry"
)

// oracleController replays a precomputed per-epoch schedule over the
// candidate set. It has no feedback loop of its own: the schedule is the
// output of an offline two-pass experiment (exhaustive static replay picks
// the best candidate per epoch), so the controller is the upper bound the
// online controller is measured against.
//
// The schedule travels in Params as integers so it survives the wire
// format: "sched_len" is the schedule length and "s0".."s{N-1}" give the
// candidate index per epoch. Epochs beyond the schedule repeat the last
// entry.
type oracleController struct {
	candidates []Setting
	sched      []int
}

func (c *oracleController) Initial() Setting { return c.candidates[c.sched[0]] }

func (c *oracleController) Decide(st EpochStats) Setting {
	idx := st.Epoch + 1
	if idx >= len(c.sched) {
		idx = len(c.sched) - 1
	}
	return c.candidates[c.sched[idx]]
}

func (c *oracleController) Reset() {}

// OracleParams builds the Params map encoding a per-epoch schedule, the
// inverse of the decoding oracle's Normalize performs.
func OracleParams(sched []int) map[string]int {
	p := make(map[string]int, len(sched)+1)
	p["sched_len"] = len(sched)
	for i, s := range sched {
		p[fmt.Sprintf("s%d", i)] = s
	}
	return p
}

// maxOracleSched bounds the schedule length carried in Params.
const maxOracleSched = 1 << 16

func normalizeOracle(s Spec) (Spec, error) {
	if len(s.Candidates) == 0 {
		return Spec{}, &registry.Error{Kind: "oracle", Field: "Candidates", Reason: "oracle needs at least one candidate setting"}
	}
	s, err := normalizeCommon("oracle", s)
	if err != nil {
		return Spec{}, err
	}
	n := s.Param("sched_len", 1)
	if n < 1 || n > maxOracleSched {
		return Spec{}, &registry.Error{Kind: "oracle", Field: "Params.sched_len", Reason: fmt.Sprintf("%d out of [1,%d]", n, maxOracleSched)}
	}
	filled := map[string]int{"sched_len": n}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		v := s.Param(name, 0)
		if v < 0 || v >= len(s.Candidates) {
			return Spec{}, &registry.Error{Kind: "oracle", Field: "Params." + name, Reason: fmt.Sprintf("candidate index %d out of [0,%d]", v, len(s.Candidates)-1)}
		}
		filled[name] = v
	}
	for name := range s.Params {
		if _, ok := filled[name]; !ok {
			return Spec{}, &registry.Error{Kind: "oracle", Field: "Params." + name, Reason: "unknown parameter (accepted: sched_len, s0..s{sched_len-1})"}
		}
	}
	s.Params = filled
	return s, nil
}

func oracleSchedule(s Spec) []int {
	n := s.Param("sched_len", 1)
	sched := make([]int, n)
	for i := range sched {
		sched[i] = s.Param(fmt.Sprintf("s%d", i), 0)
	}
	return sched
}

func init() {
	MustRegister(Entry{
		Kind:      "oracle",
		Doc:       "replay a precomputed per-epoch candidate schedule (two-pass upper bound; Params: sched_len, s0..sN)",
		Normalize: normalizeOracle,
		New: func(s Spec) (Controller, error) {
			return &oracleController{candidates: s.Candidates, sched: oracleSchedule(s)}, nil
		},
	})
}
