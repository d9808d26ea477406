package pipeline

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ctxtag"
	"repro/internal/isa"
)

// TraceKind classifies pipeline trace events.
type TraceKind uint8

// Trace event kinds, in rough pipeline order.
const (
	TraceFetch TraceKind = iota
	TraceRename
	TraceIssue
	TraceWriteback
	TraceCommit
	TraceKill
	TraceDiverge
	TraceResolve
	TraceRecover
)

var traceKindNames = [...]string{
	TraceFetch:     "fetch",
	TraceRename:    "rename",
	TraceIssue:     "issue",
	TraceWriteback: "writeback",
	TraceCommit:    "commit",
	TraceKill:      "kill",
	TraceDiverge:   "diverge",
	TraceResolve:   "resolve",
	TraceRecover:   "recover",
}

// String returns the event kind name.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return "event(?)"
}

// TraceEvent is one pipeline event, emitted when a Tracer is attached.
// It holds plain values; Note writes its text.
type TraceEvent struct {
	Cycle uint64
	Kind  TraceKind
	Seq   uint64 // instruction sequence number, from 1
	PC    int
	Path  int        // CTX-table slot of the owning path
	Tag   ctxtag.Tag // the instruction's CTX tag at the event
	Inst  isa.Inst
	// Arg is an issue's FU class, a divergence's history position, a
	// conditional resolve's Resolve* flags, or an indirect resolve's
	// actual target when mispredicted (-1 when correct).
	Arg int
}

// Flags of a conditional branch's TraceResolve Arg.
const (
	ResolveTaken = 1 << iota
	ResolveMispredicted
	ResolveDiverged
)

// Note returns the event's text: the disassembly of a fetched
// instruction, the FU class of an issue, or what a divergence, resolve or
// recovery did. Other kinds have none.
func (e TraceEvent) Note() string {
	switch e.Kind {
	case TraceFetch:
		return isa.Disasm(e.Inst)
	case TraceIssue:
		return isa.FUClass(e.Arg).String()
	case TraceDiverge:
		return fmt.Sprintf("divergence at history position %d", e.Arg)
	case TraceResolve:
		switch {
		case e.Inst.Op.IsIndirect() && e.Arg < 0:
			return "indirect target correct"
		case e.Inst.Op.IsIndirect():
			return fmt.Sprintf("indirect target mispredicted -> %d", e.Arg)
		case e.Arg&ResolveDiverged != 0:
			return fmt.Sprintf("divergence resolved (taken=%v)", e.Arg&ResolveTaken != 0)
		case e.Arg&ResolveMispredicted != 0:
			return "mispredicted"
		}
		return "correct"
	case TraceRecover:
		return "checkpoint restore + fetch redirect"
	}
	return ""
}

// Tracer receives pipeline events. Implementations must be fast; the
// simulator calls them inline.
type Tracer interface {
	Event(TraceEvent)
}

// SetTracer attaches a tracer (nil detaches). Tracing is off by default
// and has no overhead beyond a nil check when disabled.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// emit sends entry e's event to the attached tracer. It is only a nil
// check, small enough to inline, so an untraced machine pays just that.
func (m *Machine) emit(kind TraceKind, e *entry, arg int) {
	if m.tracer != nil {
		m.traceEvent(kind, e, arg)
	}
}

func (m *Machine) traceEvent(kind TraceKind, e *entry, arg int) {
	m.tracer.Event(TraceEvent{Cycle: m.cycle, Kind: kind, Seq: e.seq, PC: e.pc, Path: e.path.id, Tag: e.tag, Inst: e.inst, Arg: arg})
}

// resolveArg packs a conditional branch's resolution into Resolve* flags.
func resolveArg(e *entry) int {
	arg := 0
	if e.outcome {
		arg |= ResolveTaken
	}
	if e.outcome != e.predTaken {
		arg |= ResolveMispredicted
	}
	if e.diverged {
		arg |= ResolveDiverged
	}
	return arg
}

// PipeTrace collects events and renders per-instruction pipeline timelines
// (fetch/rename/issue/writeback/commit cycles), in the style of textual
// pipeline viewers. It caps collection to avoid unbounded memory.
type PipeTrace struct {
	maxInsts uint64
	rows     map[uint64]*pipeRow
	firstSeq uint64
}

type pipeRow struct {
	seq                                     uint64
	pc                                      int
	tag                                     ctxtag.Tag
	note                                    string
	fetch, rename, issue, writeback, commit uint64
	killed                                  uint64
}

// NewPipeTrace collects timelines for the first maxInsts fetched
// instructions.
func NewPipeTrace(maxInsts uint64) *PipeTrace {
	return &PipeTrace{maxInsts: maxInsts, rows: make(map[uint64]*pipeRow)}
}

// Event implements Tracer.
func (pt *PipeTrace) Event(e TraceEvent) {
	if pt.firstSeq == 0 {
		pt.firstSeq = e.Seq
	}
	if e.Seq-pt.firstSeq >= pt.maxInsts {
		return
	}
	r := pt.rows[e.Seq]
	if r == nil {
		r = &pipeRow{seq: e.Seq}
		pt.rows[e.Seq] = r
	}
	r.pc, r.tag = e.PC, e.Tag
	switch e.Kind {
	case TraceFetch:
		r.fetch = e.Cycle
		r.note = e.Note()
	case TraceRename:
		r.rename = e.Cycle
	case TraceIssue:
		r.issue = e.Cycle
	case TraceWriteback:
		r.writeback = e.Cycle
	case TraceCommit:
		r.commit = e.Cycle
	case TraceKill:
		r.killed = e.Cycle
	}
}

// Render writes the collected timelines, one instruction per line, with
// the cycle of each stage and the outcome (commit or kill).
func (pt *PipeTrace) Render(w io.Writer) error {
	seqs := make([]uint64, 0, len(pt.rows))
	for s := range pt.rows {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if _, err := fmt.Fprintf(w, "%6s %6s %-8s %8s %8s %8s %8s %8s  %s\n",
		"seq", "pc", "ctx", "fetch", "rename", "issue", "wback", "end", "instruction"); err != nil {
		return err
	}
	cyc := func(c uint64) string {
		if c == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", c)
	}
	for _, s := range seqs {
		r := pt.rows[s]
		end := "-"
		if r.killed != 0 {
			end = fmt.Sprintf("K%d", r.killed)
		} else if r.commit != 0 {
			end = fmt.Sprintf("C%d", r.commit)
		}
		if _, err := fmt.Fprintf(w, "%6d %6d %-8s %8s %8s %8s %8s %8s  %s\n",
			r.seq, r.pc, r.tag.String(), cyc(r.fetch), cyc(r.rename), cyc(r.issue), cyc(r.writeback), end, r.note); err != nil {
			return err
		}
	}
	return nil
}
