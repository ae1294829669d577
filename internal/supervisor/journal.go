// The run journal is an append-only JSONL stream of everything the
// supervisor did to keep a run alive: checkpoints taken, failures
// observed, slots discarded as corrupt, restores, degraded windows,
// interrupts and the final outcome. One JSON object per line makes it
// greppable mid-run (tail -f) and trivially machine-readable afterwards
// (cmd/ptlmon -journal renders the attempt history from it).
//
// The job daemon, the fleet dispatcher and the conformance fuzzer
// append their own events in the same format, each the only account of
// what it records. The daemon's journal holds service events only: a
// job's life is the job store's records (internal/jobd), not entries
// here.
package supervisor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Journal event names.
const (
	EventRunStart    = "run_start"     // supervisor starting an attempt
	EventCheckpoint  = "checkpoint"    // rotation slot written
	EventFailure     = "failure"       // run attempt failed
	EventDiscardSlot = "discard_slot"  // checkpoint slot rejected (corrupt/unreadable)
	EventRestore     = "restore"       // machine restored from a slot
	EventDegradeOn   = "degrade_start" // window re-executing on the sequential core
	EventDegradeOff  = "degrade_end"   // degraded window finished, back to the OoO core
	EventInterrupt   = "interrupt"     // cancellation: final checkpoint written
	EventGiveUp      = "give_up"       // retry budget exhausted or failure not retryable
	EventComplete    = "complete"      // run finished normally
	EventTriage      = "triage"        // divergence search result after a self-check failure
)

// Service journal event names: the job daemon (internal/jobd) appends
// these to the same JSONL stream format. They are the daemon's account
// of what is *not* a job — a rejected submission never becomes one, and
// recovery, drain and a tripped breaker concern the service as a whole.
// What happened to a job is in the job store's records and nowhere
// else (ptlmon -inspect / -addr render those), so no entry here
// repeats one; a job-store record that could not be written is an
// EventFailure of kind "store".
const (
	EventRecover     = "recover"      // daemon start replayed the durable job store
	EventReject      = "reject"       // submission rejected (kind = queue-full|tenant-quota|deadline-shed|draining|breaker|stale-epoch)
	EventBreakerOpen = "breaker_open" // circuit breaker opened for a workload config
	EventDrain       = "drain"        // daemon drain began / completed
)

// Fleet campaign event names: the multi-node dispatcher
// (internal/fleet) journals a whole campaign — grid expansion, lease
// grants, work stealing, fencing rejections, node health transitions
// and per-cell verdicts — into the same stream, so `ptlmon -journal`
// renders a 1,000-job sweep with the same machinery as a single run.
// Cell-scoped events carry the cell ID in Entry.Job and the lease
// epoch in Entry.Attempt; node-scoped events name the node in
// Entry.Message.
const (
	EventCampaignStart = "campaign_start" // dispatch began (message = grid summary)
	EventLeaseGrant    = "lease_grant"    // cell leased to a node (attempt = epoch)
	EventLeaseSteal    = "lease_steal"    // lease expired/node died; cell reassigned
	EventFenceReject   = "fence_reject"   // stale epoch's verdict rejected at collection
	EventNodeDown      = "node_down"      // node health-checked out of the fleet
	EventNodeUp        = "node_up"        // node re-admitted after recovery
	EventCellDone      = "cell_done"      // cell verdict recorded (cycle/insns/fnv)
	EventCellFail      = "cell_fail"      // cell terminally failed (kind + message)
	EventCampaignDone  = "campaign_done"  // dispatch finished (message = summary)
)

// Conformance-fuzzing event names: campaigns (internal/conformance)
// journal their lifecycle into the same stream, so a fuzz run — local,
// or dispatched as a ptlserve job — is triaged with the same tooling.
const (
	EventFuzzStart   = "fuzz_start"   // campaign began (message = parameters)
	EventFuzzFinding = "fuzz_finding" // engines disagreed on a sequence
	EventFuzzShrink  = "fuzz_shrink"  // finding delta-minimized
	EventFuzzPromote = "fuzz_promote" // reproducer written to the corpus (slot = path)
	EventFuzzDone    = "fuzz_done"    // campaign finished (message = summary)
)

// Entry is one journal record. Fields are omitted when irrelevant to
// the event.
type Entry struct {
	Time string `json:"time,omitempty"` // wall clock, RFC3339Nano
	// Started is the wall-clock time the journal's run started (its
	// first Append); ElapsedMs is the wall-clock milliseconds since
	// then, unless the writer measured a span of its own.
	Started   string `json:"started,omitempty"`
	ElapsedMs int64  `json:"elapsed_ms,omitempty"`
	Event     string `json:"event"`
	Attempt   int    `json:"attempt,omitempty"`
	Job       string `json:"job,omitempty"`    // job or campaign cell the entry concerns
	Tenant    string `json:"tenant,omitempty"` // service: the rejected submission's tenant
	Cycle     uint64 `json:"cycle,omitempty"`
	Insns     int64  `json:"insns,omitempty"`
	Kind      string `json:"kind,omitempty"` // simerr failure kind
	Message   string `json:"message,omitempty"`
	Slot      string `json:"slot,omitempty"`       // checkpoint file involved
	BackoffMs int64  `json:"backoff_ms,omitempty"` // delay before the retry
	FromCycle uint64 `json:"from_cycle,omitempty"` // degraded window start
	ToCycle   uint64 `json:"to_cycle,omitempty"`   // degraded window end
	Retryable bool   `json:"retryable,omitempty"`

	// Self-check failure detail (failure events with a divergence or
	// invariant kind) and triage results.
	Commit     int64  `json:"commit,omitempty"`      // committed-instruction index at detection
	RIP        uint64 `json:"rip,omitempty"`         // guest RIP at detection
	Diff       string `json:"diff,omitempty"`        // architectural register diff
	DivergedAt int64  `json:"diverged_at,omitempty"` // triage: first diverging instruction count
	// EventTail is the rendered pipeline event log tail captured with
	// the failure (present only when a run had -evlog enabled).
	EventTail string `json:"event_tail,omitempty"`
}

// Journal appends entries to a writer as JSONL. A nil Journal (or one
// over a nil writer) discards everything, so callers never guard their
// logging. Appends are serialized: the job daemon journals from many
// goroutines into one stream.
type Journal struct {
	w     io.Writer
	now   func() time.Time
	mu    sync.Mutex
	start time.Time // wall clock of the first Append (run start)
}

// NewJournal writes entries to w (nil w = discard). Timestamps come
// from time.Now.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, now: time.Now}
}

// Append writes one entry, stamping it with the current time plus the
// run-relative wall-clock fields: Started = first-append time, and
// ElapsedMs = milliseconds since then unless the writer set a span it
// measured itself (a fuzz shrink's duration). Journal write failures
// are reported but are deliberately non-fatal to the supervised run:
// losing history must not lose the run itself.
func (j *Journal) Append(e Entry) error {
	if j == nil || j.w == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	now := j.now()
	if j.start.IsZero() {
		j.start = now
	}
	e.Time = now.UTC().Format(time.RFC3339Nano)
	e.Started = j.start.UTC().Format(time.RFC3339Nano)
	if e.ElapsedMs == 0 {
		e.ElapsedMs = now.Sub(j.start).Milliseconds()
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("supervisor: journal encode: %w", err)
	}
	_, err = j.w.Write(append(data, '\n'))
	if err != nil {
		return fmt.Errorf("supervisor: journal write: %w", err)
	}
	if f, ok := j.w.(*os.File); ok {
		f.Sync()
	}
	return nil
}

// ReadJournal parses a JSONL journal stream, silently tolerating
// unparseable lines. Callers that want to surface how many lines were
// skipped (ptlmon/ptlstats print a warning) use ReadJournalSkipping.
func ReadJournal(r io.Reader) ([]Entry, error) {
	out, _, err := ReadJournalSkipping(r)
	return out, err
}

// ReadJournalSkipping parses a JSONL journal stream. Unparseable lines
// are exactly what crashes leave behind — a torn final line from a
// process killed mid-Append, or a torn middle line when a restarted
// daemon appends past it — so they are skipped (and counted in the
// second return) instead of failing or truncating the whole report:
// everything else is history worth reporting.
func ReadJournalSkipping(r io.Reader) ([]Entry, int, error) {
	var out []Entry
	skipped := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			skipped++
			continue
		}
		out = append(out, e)
	}
	return out, skipped, sc.Err()
}
