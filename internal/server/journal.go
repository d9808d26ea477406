package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The job journal is a line-oriented write-ahead log. Each record is
//
//	<crc32-ieee, 8 lowercase hex digits> <space> <json> <newline>
//
// where the checksum covers exactly the JSON bytes. The CRC turns two
// failure modes into detectable, recoverable events instead of lost or
// corrupted jobs:
//
//   - A torn write (crash or power loss mid-record) leaves a final line
//     whose checksum cannot match; the loader drops that tail and resumes
//     every intact record before it.
//   - Bit rot or manual edits anywhere in the file fail that record's
//     checksum; the loader drops the record, counts it in the
//     journal_dropped stat, and keeps going — a damaged journal never
//     fails startup.
//
// Journals written before the checksum existed (lines starting with '{')
// are still accepted, without integrity protection.
//
// An "accept" record is appended the moment a job is admitted and a
// "done" record when it reaches a terminal state. Pending work is the set
// of accepts without a matching done, so queued and running jobs survive
// even an abrupt kill, not just a graceful Drain: on a coordinator, cells
// already completed are replayed from the result store and the rest
// re-execute idempotently. At startup the file is compacted back to the
// pending accepts and reopened for appending.
//
// Records without an "op" field (compacted accepts, and the drain-time
// snapshots older servers wrote) read as accepts.

// journalEntry is the JSON payload of one record: enough to re-enqueue a
// still-queued job under its original ID after a restart. Fields a
// record carries beyond these (the "tenant" of journals from servers
// that had per-tenant queues) are ignored on load.
type journalEntry struct {
	ID        string     `json:"id"`
	Request   JobRequest `json:"request"`
	Submitted time.Time  `json:"submitted_at"`
	// Op is the record type: "accept", "done", or "" (a compacted or
	// legacy record, treated as accept).
	Op string `json:"op,omitempty"`
}

// appendJournalRecord formats one checksummed record.
func appendJournalRecord(dst []byte, payload []byte) []byte {
	dst = fmt.Appendf(dst, "%08x ", crc32.ChecksumIEEE(payload))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// writeJournal persists jobs as checksummed accept records, atomically:
// write to a temp file in the same directory, fsync, then rename, so a
// crash during compaction leaves either the old journal or the complete
// new one — never a half-written file under the journal's name.
func writeJournal(path string, jobs []*Job) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".journal-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, j := range jobs {
		payload, err := json.Marshal(journalEntry{ID: j.ID, Request: j.Request, Submitted: j.Submitted})
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := w.Write(appendJournalRecord(nil, payload)); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// maxJournalLine caps one journal line at load. It holds every record the
// writer produces from an HTTP request: bodies stop at maxRequestBody, and
// re-encoding a decoded request grows it less than eightfold (json.Marshal
// writes a '<' as the six bytes \u003c and spells out a workload branch
// spec's omitted fields).
const maxJournalLine = 16 * maxRequestBody

// errJournalLineTooLong reports a line past maxJournalLine.
var errJournalLineTooLong = fmt.Errorf("record longer than %d bytes", maxJournalLine)

// readJournalLine returns r's next line without its "\n" or "\r\n"
// ending, or io.EOF when no bytes remain. A line longer than limit is
// consumed whole but not kept: it returns errJournalLineTooLong, and the
// next call reads the line after it.
func readJournalLine(r *bufio.Reader, limit int) ([]byte, error) {
	var line []byte
	n := 0 // bytes of this line read so far, ending included
	for {
		chunk, err := r.ReadSlice('\n')
		n += len(chunk)
		if n <= limit+2 {
			line = append(line, chunk...)
		}
		switch {
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF && n == 0:
			return nil, io.EOF
		case err != nil && err != io.EOF:
			return nil, err
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if n > limit+2 || len(line) > limit {
			return nil, errJournalLineTooLong
		}
		return line, nil
	}
}

// parseJournalLine validates one journal line and returns its JSON
// payload. Legacy records (bare JSON, no checksum) are accepted.
func parseJournalLine(line []byte) ([]byte, error) {
	if len(line) > 0 && line[0] == '{' {
		return line, nil // pre-checksum journal
	}
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("malformed record (no checksum prefix)")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed checksum %q", line[:8])
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch (want %08x, got %08x): torn or corrupt record", want, got)
	}
	return payload, nil
}

// loadJournal re-enqueues pending jobs from a previous incarnation's
// journal, after compacting the file to their accepts and reopening it
// for appending. Damaged content never fails startup: records that are
// torn, corrupt, longer than maxJournalLine, unparseable, no longer
// valid under the current server caps, or unsubmittable are dropped with
// a log line and counted in journal_dropped; each resumed job counts in
// journal_resumed.
func (s *Server) loadJournal(path string) (int, error) {
	drop := func(line int, id string, why error) {
		s.svc.JournalDropped.Add(1)
		if id != "" {
			id = " (job " + id + ")"
		}
		s.cfg.Log.Printf("polyserve: journal line %d%s dropped: %v", line, id, why)
	}

	// Pass 1: scan every intact record, resolving accepts against dones.
	// Pending = accepted but never finished, in acceptance order.
	type pendingRec struct {
		entry journalEntry
		line  int
	}
	var pending []pendingRec
	index := make(map[string]int) // job ID -> pending slot (-1 = done)
	f, err := os.Open(path)
	if err == nil {
		r := bufio.NewReader(f)
		var readErr error
		for line := 1; ; line++ {
			text, err := readJournalLine(r, maxJournalLine)
			if err == io.EOF {
				break
			}
			if err == errJournalLineTooLong {
				drop(line, "", err)
				continue
			}
			if err != nil {
				readErr = err
				break
			}
			if len(bytes.TrimSpace(text)) == 0 {
				continue
			}
			payload, err := parseJournalLine(text)
			if err != nil {
				drop(line, "", err)
				continue
			}
			var e journalEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				drop(line, "", err)
				continue
			}
			switch e.Op {
			case "", "accept":
				if _, dup := index[e.ID]; !dup || index[e.ID] == -1 {
					index[e.ID] = len(pending)
					pending = append(pending, pendingRec{entry: e, line: line})
				}
			case "done":
				if slot, ok := index[e.ID]; ok && slot >= 0 {
					pending[slot].entry.ID = "" // tombstone
					index[e.ID] = -1
				}
			default:
				drop(line, e.ID, fmt.Errorf("unknown journal op %q", e.Op))
			}
		}
		f.Close()
		if readErr != nil {
			return 0, readErr
		}
	} else if !os.IsNotExist(err) {
		return 0, err
	}

	// Pass 2: rebuild the pending jobs that still validate.
	var jobs []*Job
	var lines []int
	for _, p := range pending {
		if p.entry.ID == "" {
			continue
		}
		e := p.entry
		configs, err := e.Request.resolve(s.cfg.MaxInsts)
		if err != nil {
			drop(p.line, e.ID, err)
			continue
		}
		jobs = append(jobs, &Job{
			ID:        e.ID,
			State:     JobQueued,
			Request:   e.Request,
			Submitted: e.Submitted,
			configs:   configs,
			cells:     newCellLog(e.Request),
		})
		lines = append(lines, p.line)
	}

	// Compact before any resumed job can run, so its done record lands
	// after its accept.
	if err := s.walOpen(path, jobs); err != nil {
		return 0, err
	}

	// Pass 3: re-enqueue them.
	n := 0
	for i, j := range jobs {
		s.mu.Lock()
		s.jobs[j.ID] = j
		// Keep fresh IDs past the journaled ones.
		if num, ok := strings.CutPrefix(j.ID, "job-"); ok {
			if v, err := strconv.ParseUint(num, 10, 64); err == nil && v > s.nextID {
				s.nextID = v
			}
		}
		s.mu.Unlock()
		if err := s.sched.submit(j); err != nil {
			s.mu.Lock()
			delete(s.jobs, j.ID)
			s.mu.Unlock()
			s.walAppend("done", j)
			drop(lines[i], j.ID, err)
			continue
		}
		s.svc.JobsSubmitted.Add(1)
		s.svc.JournalResumed.Add(1)
		n++
	}
	return n, nil
}

// walOpen compacts the journal down to jobs (one accept record each) and
// opens it for appending. The compaction is the same atomic temp+rename
// as writeJournal, so a crash mid-compaction leaves the previous journal
// intact.
func (s *Server) walOpen(path string, jobs []*Job) error {
	if err := writeJournal(path, jobs); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.walMu.Lock()
	s.walF = f
	s.walMu.Unlock()
	return nil
}

// walAppend appends one WAL record ("accept" on admission, "done" on any
// terminal state). A write failure degrades durability, not
// availability: it is logged and the job proceeds.
func (s *Server) walAppend(op string, j *Job) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.walF == nil {
		return
	}
	payload, err := json.Marshal(journalEntry{
		ID: j.ID, Request: j.Request, Submitted: j.Submitted, Op: op,
	})
	if err != nil {
		s.cfg.Log.Printf("polyserve: wal %s %s: %v", op, j.ID, err)
		return
	}
	if _, err := s.walF.Write(appendJournalRecord(nil, payload)); err != nil {
		s.cfg.Log.Printf("polyserve: wal %s %s: %v", op, j.ID, err)
	}
}

// walClose syncs and closes the WAL file (after Drain), so a graceful
// drain leaves every record on stable storage.
func (s *Server) walClose() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.walF == nil {
		return nil
	}
	err := s.walF.Sync()
	if cerr := s.walF.Close(); err == nil {
		err = cerr
	}
	s.walF = nil
	return err
}
