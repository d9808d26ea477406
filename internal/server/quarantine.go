package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"sort"
	"sync"
	"time"
)

// quarantine.go implements polyserve's repeated-crash containment: a job
// request whose execution keeps crashing the worker (a contained panic or
// a pipeline machine check) is fingerprinted, counted, and — once it has
// crashed crashThreshold times — refused at submission with HTTP 403. One
// poisoned request can therefore never grind the service down by being
// resubmitted in a retry loop; every other request keeps flowing.

// crashThreshold is how many crashed jobs a request signature may
// accumulate before further submissions of it are refused.
const crashThreshold = 3

// QuarantineEntry is one crash-tracked request fingerprint, served by
// GET /v1/quarantine.
type QuarantineEntry struct {
	// Signature fingerprints the job request (hash of its canonical JSON).
	Signature string `json:"signature"`
	// Describe is a human-oriented summary of the offending request.
	Describe string `json:"describe"`
	// Crashes counts this request's jobs that crashed a worker (a
	// contained panic or machine check, in process or on fleet workers).
	Crashes int `json:"crashes"`
	// Quarantined is true once Crashes reached the server's threshold;
	// further submissions with this signature are rejected.
	Quarantined bool `json:"quarantined"`
	// LastError is the most recent crash's error text.
	LastError string `json:"last_error"`
	// LastCrash is when the most recent crash was recorded.
	LastCrash time.Time `json:"last_crash"`
	// Node is the worker node that observed the most recent crash, and
	// Nodes every node that ever crashed on this signature — the fleet
	// operator's "bad config" (many nodes) vs "bad node" (one node)
	// triage signal. Empty on pre-fleet records.
	Node  string   `json:"node,omitempty"`
	Nodes []string `json:"nodes,omitempty"`
}

// quarantine tracks crash counts per request signature; an entry is
// quarantined once its count reaches threshold (crashThreshold on a
// Server).
type quarantine struct {
	mu        sync.Mutex
	threshold int
	entries   map[string]*QuarantineEntry
}

func newQuarantine(threshold int) *quarantine {
	return &quarantine{threshold: threshold, entries: make(map[string]*QuarantineEntry)}
}

// crashSignature fingerprints a request by hashing its canonical JSON
// encoding (struct field order is fixed, so equal requests hash equally).
func crashSignature(req JobRequest) string {
	blob, err := json.Marshal(req)
	if err != nil {
		// Marshal of a plain data struct cannot fail; collapse the
		// impossible case into a shared bucket rather than panicking.
		return "unhashable"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// recordCrash counts one crashed job for the request, attributed to the
// worker nodes that observed its crashes (the local node for in-process
// execution, the remote workers' IDs for fleet dispatch), and reports
// whether this crash tipped it into quarantine. All methods tolerate a
// nil receiver (a Server built without New has no quarantine).
func (q *quarantine) recordCrash(req JobRequest, describe, errText string, nodes []string, now time.Time) (sig string, quarantinedNow bool) {
	sig = crashSignature(req)
	if q == nil {
		return sig, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[sig]
	if e == nil {
		e = &QuarantineEntry{Signature: sig, Describe: describe}
		q.entries[sig] = e
	}
	e.Crashes++
	e.LastError = errText
	e.LastCrash = now
	for _, node := range nodes {
		e.Node = node
		if !slices.Contains(e.Nodes, node) {
			e.Nodes = append(e.Nodes, node)
		}
	}
	if !e.Quarantined && e.Crashes >= q.threshold {
		e.Quarantined = true
		return sig, true
	}
	return sig, false
}

// check reports whether the request is quarantined.
func (q *quarantine) check(req JobRequest) (sig string, quarantined bool) {
	sig = crashSignature(req)
	if q == nil {
		return sig, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[sig]
	return sig, e != nil && e.Quarantined
}

// list returns all crash-tracked entries, most-recently-crashed first.
func (q *quarantine) list() []QuarantineEntry {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	out := make([]QuarantineEntry, 0, len(q.entries))
	for _, e := range q.entries {
		out = append(out, *e)
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].LastCrash.Equal(out[k].LastCrash) {
			return out[i].LastCrash.After(out[k].LastCrash)
		}
		return out[i].Signature < out[k].Signature
	})
	return out
}
