package pipeline

import (
	"repro/internal/bpred"
	"repro/internal/confidence"
	"repro/internal/isa"
)

// fetch implements the multi-path fetch stage. All live, actively fetching
// paths contend for the aggregate fetch bandwidth; paths are prioritized by
// age (creation order), and bandwidth decreases exponentially with a path's
// distance from the oldest path: the oldest path receives half of the
// remaining bandwidth (rounded up) and the last path receives the rest, so
// a single-path (monopath) machine always gets the full width (Sec. 3.2.6
// and the fetch assumptions of Sec. 4.2).
func (m *Machine) fetch() {
	if len(m.frontEnd[0]) > 0 {
		return // stage 0 latch stalled
	}
	// The live list is already in creation order.
	fps := m.fpsScratch[:0]
	for _, p := range m.live {
		if p.fetching && !p.halted && m.cycle >= p.fetchStallUntil {
			fps = append(fps, p)
		}
	}
	m.fpsScratch = fps
	if len(fps) == 0 {
		return
	}

	bw := m.policyFetchWidth()
	fetched := m.allocLatch()
	for i, p := range fps {
		if bw <= 0 {
			break
		}
		grant := bw
		if i < len(fps)-1 {
			switch m.cfg.FetchPolicy {
			case FetchRoundRobin:
				// Even division across the remaining paths.
				grant = (bw + len(fps) - 1 - i) / (len(fps) - i)
			default:
				// Exponential decay: each path takes half of the remaining
				// bandwidth, the last path the remainder, so bandwidth
				// halves with a path's distance from the oldest divergence
				// and a single-path machine keeps the full width.
				grant = (bw + 1) / 2
			}
		}
		bw -= m.fetchPath(p, grant, &fetched)
	}
	if len(fetched) > 0 {
		m.frontEnd[0] = fetched
		m.Stats.Fetched += uint64(len(fetched))
	} else {
		m.freeLatch(fetched)
	}
}

// fetchPath fetches up to grant instructions along path p, following
// predicted directions (fetch may cross basic blocks within one cycle) and
// creating a divergence when the confidence estimator flags a branch as
// low confidence. Returns the number of instructions fetched.
func (m *Machine) fetchPath(p *path, grant int, out *[]*entry) int {
	n := 0
	for n < grant && p.fetching && !p.halted {
		pc := p.fetchPC
		if pc < 0 || pc >= len(m.prog.Code) {
			// Wrong-path fall-through past the end of the program; this
			// path idles until it is killed.
			p.fetching = false
			break
		}
		if m.icache != nil {
			m.Stats.ICacheAccesses++
			if !m.icache.Access(pc) {
				// Refill stall: the path resumes after the miss latency;
				// the line is now allocated so the retry hits.
				m.Stats.ICacheMisses++
				p.fetchStallUntil = m.cycle + uint64(m.cfg.ICacheMissLatency)
				break
			}
		}
		in := m.prog.Code[pc]
		f := m.fetchEntry(p, pc, in)
		switch m.deco[pc].kind {
		case dkJmp:
			// Direct jump: the target is known at fetch; redirect with no
			// bubble (multi-block fetch).
			p.fetchPC = int(in.Target)
		case dkHalt:
			p.halted = true
		case dkCond:
			m.fetchBranch(p, f)
		case dkCall:
			// Direct call: redirect and push the return address onto this
			// path's speculative return-address stack.
			p.ras.Push(pc + 1)
			p.fetchPC = int(in.Target)
		case dkIndirect:
			m.fetchIndirect(p, f)
		default:
			p.fetchPC = pc + 1
		}
		*out = append(*out, f)
		n++
		m.emit(TraceFetch, f, 0)
		if f.diverged {
			m.emit(TraceDiverge, f, f.histPos)
			break // parent stops fetching; children start next cycle
		}
	}
	return n
}

// fetchBranch predicts a conditional branch, consults the confidence
// estimator, and either follows the prediction (coherent branch) or
// creates a divergence (selective eager execution).
func (m *Machine) fetchBranch(p *path, f *entry) {
	pc := f.pc
	// Trace cursor: the oracle predictor and oracle confidence estimator
	// need the actual outcome, which is known at fetch only while this
	// path tracks the architectural execution stream.
	actualKnown, actualTaken := false, false
	if p.onTrace && p.traceIdx < len(m.trace) {
		if r := m.trace[p.traceIdx]; !r.Indirect && int(r.PC) == pc {
			actualKnown, actualTaken = true, r.Taken
		}
	}

	// Prediction history: speculative per-path history by default, or the
	// architectural commit-time history for the non-speculative ablation.
	hist := p.ghr
	if m.cfg.NonSpeculativeHistory {
		hist = m.archGHR
	}
	var predTaken bool
	if m.oracle {
		predTaken = actualKnown && actualTaken
	} else {
		predTaken = m.pred.Predict(pc, hist)
	}
	hint := confidence.Hint{Known: actualKnown, Taken: actualTaken}
	highConf := m.conf.Estimate(pc, hist, predTaken, hint)

	f.isBranch = true
	f.predTaken = predTaken
	f.lowConf = !highConf
	f.ghrAtPredict = hist
	if m.hasCallRet {
		m.snapshotRAS(f, p)
	}
	f.onTrace = p.onTrace && actualKnown
	f.traceIdx = p.traceIdx
	p.pendingBranches++

	if !highConf && m.cfg.Mode == PolyPath && m.divergeAllowed() {
		if m.tryDiverge(p, f, actualKnown, actualTaken) {
			return
		}
		m.Stats.DivergenceBlocked++
	}

	// Coherent branch: follow the prediction, update the speculative
	// per-path history, and advance the trace cursor.
	p.ghr = bpred.PushHistory(p.ghr, predTaken)
	p.onTrace = p.onTrace && actualKnown && predTaken == actualTaken
	p.traceIdx++
	if predTaken {
		p.fetchPC = int(f.inst.Target)
	} else {
		p.fetchPC = pc + 1
	}
}

// tryDiverge creates a divergence at branch f if context resources allow:
// a free CTX history position, two free CTX table entries, and (for the
// dual-path restriction of Sec. 5.2) an available divergence slot.
func (m *Machine) tryDiverge(p *path, f *entry, actualKnown, actualTaken bool) bool {
	if limit := m.divergenceLimit(); limit > 0 && m.divergences >= limit {
		return false
	}
	if m.freePathSlots() < 2 {
		return false
	}
	pos, ok := m.ctxAlloc.Alloc()
	if !ok {
		return false
	}
	m.divergences++
	m.Stats.Divergences++
	f.diverged = true
	f.histPos = pos

	// The predicted successor is created first so it sits ahead of its
	// sibling in the fetch priority order: the likely continuation keeps
	// most of the bandwidth, the hedge path gets the decayed remainder.
	child := func(taken bool) *path {
		fetchPC := f.pc + 1
		if taken {
			fetchPC = int(f.inst.Target)
		}
		c := m.newPath(
			p.tag.WithPosition(pos, taken),
			fetchPC,
			bpred.PushHistory(p.ghr, taken),
			p.onTrace && actualKnown && actualTaken == taken,
			p.traceIdx+1,
		)
		if m.hasCallRet {
			c.ras.CopyFrom(p.ras)
		}
		return c
	}
	if f.predTaken {
		f.childT = child(true)
		f.childN = child(false)
	} else {
		f.childN = child(false)
		f.childT = child(true)
	}
	// The children's register maps are copied from the parent when the
	// branch reaches rename (the front end is in order, so every child
	// instruction renames after the branch).
	p.fetching = false
	p.divergedParent = true
	return true
}

// snapshotRAS captures the path's return-address stack into the entry's
// persistent snapshot buffer (allocated once per pooled entry and reused
// until an arena hands the entry to a machine of another RAS depth).
func (m *Machine) snapshotRAS(f *entry, p *path) {
	if f.rasSnap == nil || f.rasSnap.Depth() != m.cfg.RASDepth {
		f.rasSnap = bpred.NewRAS(m.cfg.RASDepth)
	}
	f.rasSnap.CopyFrom(p.ras)
}

// fetchIndirect predicts an indirect jump's target with the BTB. On a BTB
// miss the path stalls until the jump resolves (a real fetch unit has no
// address to follow); on a hit fetch continues at the predicted target and
// a wrong prediction is repaired by checkpoint recovery at resolution.
func (m *Machine) fetchIndirect(p *path, f *entry) {
	pc := f.pc
	f.isIndirect = true
	f.ghrAtPredict = p.ghr
	f.traceIdx = p.traceIdx
	p.pendingBranches++

	// Trace cursor: consume the indirect record if this path tracks the
	// architectural stream.
	actualKnown, actualTarget := false, 0
	if p.onTrace && p.traceIdx < len(m.trace) {
		if r := m.trace[p.traceIdx]; r.Indirect && int(r.PC) == pc {
			actualKnown, actualTarget = true, int(r.Target)
		}
	}
	f.onTrace = p.onTrace && actualKnown

	f.isRet = f.inst.Op == isa.Ret
	var target int
	var ok bool
	switch {
	case m.oracle && actualKnown:
		target, ok = actualTarget, true
		if f.isRet {
			p.ras.Pop() // keep the speculative stack balanced
		}
	case m.oracle:
		target, ok = 0, false
	case f.isRet:
		// Function returns are predicted by the return-address stack.
		target, ok = p.ras.Pop()
	default:
		target, ok = m.btb.Predict(pc)
	}
	f.predTarget, f.predTargetOK = target, ok
	if m.hasCallRet {
		m.snapshotRAS(f, p) // post-pop state: recovery resumes after the return
	}
	p.traceIdx++
	if !ok {
		// No prediction: stall this path until resolution redirects it.
		p.fetching = false
		p.onTrace = false
		return
	}
	p.fetchPC = target
	p.onTrace = p.onTrace && actualKnown && target == actualTarget
}
