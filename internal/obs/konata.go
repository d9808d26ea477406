package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/pipeline"
)

// Konata stage mnemonics for the pipeline's trace kinds, in stage order.
const (
	konataStageFetch     = "F"
	konataStageRename    = "Rn"
	konataStageExecute   = "X"
	konataStageWriteback = "Wb"
)

// WriteKonata renders one cell's event stream as a Konata-style pipeline
// timeline (the "Kanata" log format of the Onikiri/Konata visualizer):
// one row per dynamic instruction, with stage start/end records as the
// instruction moves through fetch, rename, execute and writeback, and a
// retire record marking commit (type 0) or squash (type 1).
//
// Instructions whose fetch event was lost to the capture bound are
// started lazily at their first retained event.
func WriteKonata(w io.Writer, events []pipeline.TraceEvent) error {
	evs := slices.Clone(events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Kanata\t0004\n")
	var (
		cur     uint64 // current log cycle
		started bool
		nextID  uint64
		ids     = map[uint64]uint64{} // seq -> dense row id
		stage   = map[uint64]string{} // seq -> open stage
		retired = map[uint64]bool{}
		retires uint64
	)
	advance := func(cycle uint64) {
		if !started {
			fmt.Fprintf(bw, "C=\t%d\n", cycle)
			cur, started = cycle, true
			return
		}
		if cycle > cur {
			fmt.Fprintf(bw, "C\t%d\n", cycle-cur)
			cur = cycle
		}
	}
	begin := func(e pipeline.TraceEvent) uint64 {
		id, ok := ids[e.Seq]
		if !ok {
			id = nextID
			nextID++
			ids[e.Seq] = id
			fmt.Fprintf(bw, "I\t%d\t%d\t%d\n", id, e.Seq, e.Path)
			label := e.Note()
			if label == "" {
				label = fmt.Sprintf("pc=%d", e.PC)
			}
			fmt.Fprintf(bw, "L\t%d\t0\t%d: %s [%s]\n", id, e.PC, label, e.Tag.String())
		}
		return id
	}
	enter := func(id uint64, seq uint64, st string) {
		if open := stage[seq]; open != "" {
			fmt.Fprintf(bw, "E\t%d\t0\t%s\n", id, open)
		}
		stage[seq] = st
		if st != "" {
			fmt.Fprintf(bw, "S\t%d\t0\t%s\n", id, st)
		}
	}
	for _, e := range evs {
		if retired[e.Seq] {
			continue
		}
		advance(e.Cycle)
		id := begin(e)
		switch e.Kind {
		case pipeline.TraceFetch:
			enter(id, e.Seq, konataStageFetch)
		case pipeline.TraceRename:
			enter(id, e.Seq, konataStageRename)
		case pipeline.TraceIssue:
			enter(id, e.Seq, konataStageExecute)
		case pipeline.TraceWriteback:
			enter(id, e.Seq, konataStageWriteback)
		case pipeline.TraceCommit:
			enter(id, e.Seq, "")
			retires++
			fmt.Fprintf(bw, "R\t%d\t%d\t0\n", id, retires)
			retired[e.Seq] = true
		case pipeline.TraceKill:
			enter(id, e.Seq, "")
			fmt.Fprintf(bw, "R\t%d\t0\t1\n", id)
			retired[e.Seq] = true
		}
	}
	return bw.Flush()
}
