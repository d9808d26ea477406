package pipeline

import (
	"repro/internal/confidence"
	"repro/internal/policy"
)

// polState is the machine-side half of the policy control loop: it tracks
// the stat snapshot at the current epoch's start, accumulates the per-cycle
// live-path sum, and holds the controller plus the setting currently in
// force. All actuation happens at epoch boundaries (policyEpoch), so within
// an epoch the machine is exactly a fixed-policy machine and every
// invariant the auditor checks is unaffected.
type polState struct {
	ctrl        policy.Controller
	epochCycles uint64
	cur         policy.Setting
	epoch       int

	// Snapshot of the cumulative counters at the epoch's first cycle.
	baseCycles    uint64
	baseCommitted uint64
	baseCond      uint64
	baseMispred   uint64
	baseLowConf   uint64
	baseLowConfMp uint64
	// pathSum accumulates live-path occupancy, one sample per cycle.
	pathSum uint64
}

// snapshot derives the completed epoch's EpochStats from the counter
// deltas since the epoch's start.
func (ps *polState) snapshot(m *Machine) policy.EpochStats {
	s := &m.Stats
	dc := s.Cycles - ps.baseCycles
	di := s.Committed - ps.baseCommitted
	db := s.CondBranches - ps.baseCond
	dm := s.Mispredicts - ps.baseMispred
	dl := s.LowConf - ps.baseLowConf
	dlm := s.LowConfMispred - ps.baseLowConfMp
	st := policy.EpochStats{
		Epoch: ps.epoch, Cycles: dc, Committed: di,
		CondBranches: db, Mispredicts: dm, LowConf: dl, LowConfMispred: dlm,
	}
	if dc > 0 {
		st.IPC = float64(di) / float64(dc)
		st.AvgLivePaths = float64(ps.pathSum) / float64(dc)
	}
	if db > 0 {
		st.MispredictRate = float64(dm) / float64(db)
		st.LowConfRate = float64(dl) / float64(db)
	}
	if dl > 0 {
		st.PVN = float64(dlm) / float64(dl)
	}
	return st
}

// rebase starts a new epoch at the current counter values.
func (ps *polState) rebase(m *Machine) {
	s := &m.Stats
	ps.baseCycles = s.Cycles
	ps.baseCommitted = s.Committed
	ps.baseCond = s.CondBranches
	ps.baseMispred = s.Mispredicts
	ps.baseLowConf = s.LowConf
	ps.baseLowConfMp = s.LowConfMispred
	ps.pathSum = 0
}

// buildPolicy constructs the controller for a normalized policy spec and
// applies its initial setting. Called from NewWithArena after the
// confidence estimator exists; a nil return with nil error means no policy
// is configured.
func (m *Machine) buildPolicy() error {
	if m.cfg.Policy.Kind == "" {
		return nil
	}
	ctrl, err := policy.Build(m.cfg.Policy)
	if err != nil {
		return err
	}
	m.pol = &polState{
		ctrl:        ctrl,
		epochCycles: uint64(m.cfg.Policy.EpochCycles),
		cur:         ctrl.Initial(),
	}
	m.applySetting(m.pol.cur)
	return nil
}

// policyEpoch closes the epoch that ended on this cycle: it feeds the
// epoch's deltas to the controller and applies the returned setting, which
// governs every cycle until the next boundary.
func (m *Machine) policyEpoch() {
	st := m.pol.snapshot(m)
	m.Stats.EpochIPC = append(m.Stats.EpochIPC, st.IPC)
	next := m.pol.ctrl.Decide(st)
	m.pol.epoch++
	m.pol.rebase(m)
	if next != m.pol.cur {
		m.Stats.PolicySwitches++
		m.pol.cur = next
		m.applySetting(next)
	}
}

// policyFinalize records the trailing partial epoch when the run halts
// between boundaries. A run whose last cycle lands exactly on a boundary
// has no partial epoch — EpochIPC never carries a zero-length entry.
func (m *Machine) policyFinalize() {
	if m.pol == nil || m.Stats.Cycles == m.pol.baseCycles {
		return
	}
	m.Stats.EpochIPC = append(m.Stats.EpochIPC, m.pol.snapshot(m).IPC)
}

// applySetting actuates the setting's confidence-threshold knob. The
// divergence and fetch-width knobs are not pushed anywhere: fetch reads
// them through policyFetchWidth/divergeAllowed/divergenceLimit every
// cycle, so they take effect at the boundary with no estimator state
// touched.
func (m *Machine) applySetting(s policy.Setting) {
	if ts, ok := m.conf.(confidence.ThresholdSetter); ok {
		ts.SetThreshold(s.ConfThreshold)
	}
}

// divergeAllowed reports whether the policy currently permits divergence
// at all. When it does not, a low-confidence branch is fetched coherently
// by choice — that is not a DivergenceBlocked event, which counts only
// resource exhaustion.
func (m *Machine) divergeAllowed() bool {
	return m.pol == nil || m.pol.cur.MaxDivergences >= 0
}

// divergenceLimit returns the in-force cap on simultaneous divergences
// (0 = unlimited): the policy's positive override, else the config's.
func (m *Machine) divergenceLimit() int {
	if m.pol != nil && m.pol.cur.MaxDivergences > 0 {
		return m.pol.cur.MaxDivergences
	}
	return m.cfg.MaxDivergences
}

// policyFetchWidth returns the in-force fetch bandwidth: the configured
// width, capped by the policy's throttle when one is active.
func (m *Machine) policyFetchWidth() int {
	bw := m.cfg.FetchWidth
	if m.pol != nil && m.pol.cur.FetchWidth > 0 && m.pol.cur.FetchWidth < bw {
		bw = m.pol.cur.FetchWidth
	}
	return bw
}
