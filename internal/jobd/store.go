package jobd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// The job store is the daemon's write-ahead log and the only copy of a
// job's lifecycle state: every transition (accepted → queued →
// running(pid, attempt) → done/failed) is one fsync'd JSONL record
// appended to <dir>/store.jsonl and then folded into the materialised
// JobState by apply, so a transition exists, and is visible, exactly
// when it is durable. apply is the only writer of that state and view
// the only constructor of the Status readers see, which is why a live
// daemon, a restarted one and a read-only replay answer identically. A daemon crash — SIGKILL, OOM kill, deploy restart —
// loses at most the in-flight HTTP response, never an accepted job:
// startup replays the log to rebuild the queue, re-attach or reap
// orphaned workers, and answer idempotent resubmits.
//
// Replay is bounded by snapshot compaction: every CompactEvery
// appends, the materialized state is written atomically (temp + fsync
// + rename) to <dir>/store-snap.json stamped with the last applied
// sequence number, and the log is atomically replaced with an empty
// one. A crash between the two renames is harmless: records at or
// below the snapshot's LastSeq are skipped during replay, so applying
// the old log over the new snapshot is idempotent.

// Store record operations (Record.Op).
const (
	opAccept = "accept" // job admitted (spec + idempotency key); phase → queued
	opStart  = "start"  // worker spawned for an attempt (pid + start time); phase → running
	opExit   = "exit"   // worker died abnormally; phase stays running while retryable
	opAdopt  = "adopt"  // recovery re-attached a live orphan worker
	opDone   = "done"   // job completed (result); terminal
	opFail   = "fail"   // job failed terminally (kind + message); terminal
	opState  = "state"  // synthetic: compacted-away history summarized as one record
)

// Record is one WAL entry. It doubles as the wire format of the
// /jobs/{id}/events stream (Seq is the SSE event id).
type Record struct {
	Seq      int64   `json:"seq"`
	Time     string  `json:"time,omitempty"`
	Op       string  `json:"op"`
	Job      string  `json:"job,omitempty"`
	IdemKey  string  `json:"idem_key,omitempty"`
	Spec     *Spec   `json:"spec,omitempty"`
	Attempt  int     `json:"attempt,omitempty"`
	PID      int     `json:"pid,omitempty"`
	PIDStart uint64  `json:"pid_start,omitempty"`
	Kind     string  `json:"kind,omitempty"`
	Message  string  `json:"message,omitempty"`
	Result   *Result `json:"result,omitempty"`
	Phase    State   `json:"phase,omitempty"` // state/terminal records: the job's phase

	// exit records: the rest of the worker's Failure — whether the daemon
	// may respawn, and where in the guest it happened when the worker
	// could say.
	Retryable bool   `json:"retryable,omitempty"`
	Cycle     uint64 `json:"cycle,omitempty"`
	RIP       uint64 `json:"rip,omitempty"`
}

// JobState is the materialized per-job state the WAL replays into —
// the job itself: what recovery re-queues or adopts, and what every
// Status a reader sees is computed from.
type JobState struct {
	ID       string  `json:"id"`
	IdemKey  string  `json:"idem_key,omitempty"`
	Spec     Spec    `json:"spec"`
	Phase    State   `json:"phase"`
	Attempt  int     `json:"attempt,omitempty"`
	PID      int     `json:"pid,omitempty"`
	PIDStart uint64  `json:"pid_start,omitempty"`
	Adopted  bool    `json:"adopted,omitempty"` // a restarted daemon re-attached the live worker
	Kind     string  `json:"kind,omitempty"`
	Error    string  `json:"error,omitempty"`
	Result   *Result `json:"result,omitempty"`

	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"` // newest attempt's start (its deadline base)
	FinishedAt  string `json:"finished_at,omitempty"`
	// FirstStartedAt keeps the first attempt's start — where the queue
	// wait ended — once a respawn has moved StartedAt on.
	FirstStartedAt string `json:"first_started_at,omitempty"`
}

// terminal reports whether the phase can no longer change.
func (js *JobState) terminal() bool {
	return js.Phase == StateDone || js.Phase == StateFailed
}

// storeSnapshot is the compaction file format.
type storeSnapshot struct {
	LastSeq int64       `json:"last_seq"`
	Jobs    []*JobState `json:"jobs"`
}

const (
	storeLogFile  = "store.jsonl"
	storeSnapFile = "store-snap.json"
)

// StoreExists reports whether dir holds a job store (log or snapshot
// present) — how ptlmon -inspect recognizes a daemon data directory.
func StoreExists(dir string) bool {
	for _, name := range []string{storeLogFile, storeSnapFile} {
		if st, err := os.Stat(filepath.Join(dir, name)); err == nil && !st.IsDir() {
			return true
		}
	}
	return false
}

// JobStore is the WAL plus its materialized state. All methods are
// safe for concurrent use; appends are serialized and fsync'd in
// order.
type JobStore struct {
	dir          string
	compactEvery int
	now          func() time.Time

	mu          sync.Mutex
	f           *os.File
	seq         int64
	appended    int // records in the current (post-compaction) log
	compactions int64
	jobs        map[string]*JobState
	order       []string
	idem        map[string]string   // idempotency key → job ID
	events      map[string][]Record // per-job replayable event history
	skipped     int                 // unparseable lines tolerated during replay
	watch       chan struct{}       // closed and replaced on every append

	// collapsedSeq is the newest snapshot's sequence number: the next
	// compaction collapses the event history of finished jobs with no
	// record past it.
	collapsedSeq int64
}

// Compactions reports how many snapshot compactions this incarnation
// has performed (exported via the daemon's metrics registry).
func (s *JobStore) Compactions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactions
}

// OpenJobStore opens (creating if absent) the store in dir, replaying
// the snapshot and log into memory. compactEvery bounds the log length
// between compactions (<=0 selects the default of 256).
func OpenJobStore(dir string, compactEvery int) (*JobStore, error) {
	if compactEvery <= 0 {
		compactEvery = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobd: store dir: %w", err)
	}
	s := &JobStore{
		dir:          dir,
		compactEvery: compactEvery,
		now:          time.Now,
		jobs:         map[string]*JobState{},
		idem:         map[string]string{},
		events:       map[string][]Record{},
		watch:        make(chan struct{}),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, storeLogFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobd: store log: %w", err)
	}
	s.f = f
	return s, nil
}

// ReadJobStore replays a store read-only (no files are created or
// opened for writing) and answers with every job's Status in acceptance
// order, through the same view a daemon on that directory serves — the
// ptlmon -inspect entry point. The int is the count of unparseable log
// lines skipped (torn writes).
func ReadJobStore(dir string) ([]Status, int, error) {
	s := &JobStore{
		dir:    dir,
		jobs:   map[string]*JobState{},
		idem:   map[string]string{},
		events: map[string][]Record{},
	}
	if err := s.replay(); err != nil {
		return nil, 0, err
	}
	return s.statuses("", 0), s.skipped, nil
}

// replay loads the snapshot (if any) and applies log records past its
// LastSeq. Unparseable lines — the torn final line a crash mid-append
// leaves, or a torn middle line followed by post-restart appends — are
// skipped and counted, never fatal.
func (s *JobStore) replay() error {
	snapPath := filepath.Join(s.dir, storeSnapFile)
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap storeSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("jobd: store snapshot %s: %w", snapPath, err)
		}
		s.seq = snap.LastSeq
		for _, js := range snap.Jobs {
			s.jobs[js.ID] = js
			s.order = append(s.order, js.ID)
			if js.IdemKey != "" {
				s.idem[js.IdemKey] = js.ID
			}
			s.events[js.ID] = []Record{stateRecord(js, snap.LastSeq)}
		}
		s.collapsedSeq = snap.LastSeq
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("jobd: store snapshot: %w", err)
	}

	f, err := os.Open(filepath.Join(s.dir, storeLogFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("jobd: store log: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			s.skipped++
			continue
		}
		if rec.Seq <= s.seq && rec.Seq != 0 {
			// Already covered by the snapshot (crash between the
			// snapshot rename and the log rotation).
			continue
		}
		s.apply(rec)
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		s.appended++
	}
	return sc.Err()
}

// stateRecord summarizes a job's compacted-away history as one synthetic
// record stamped with the compaction's sequence number, so event-stream
// clients reconnecting with an old Last-Event-ID still get the job's
// current phase.
func stateRecord(js *JobState, seq int64) Record {
	return Record{Seq: seq, Op: opState, Job: js.ID, Phase: js.Phase, Attempt: js.Attempt,
		PID: js.PID, Kind: js.Kind, Message: js.Error, Result: js.Result}
}

// apply folds one record into the materialized state and the per-job
// event history. Only an accept record can introduce a job: anything
// else naming a job the store has never accepted is dropped whole.
func (s *JobStore) apply(rec Record) {
	js := s.jobs[rec.Job]
	if js == nil {
		if rec.Op != opAccept {
			return
		}
		js = &JobState{ID: rec.Job}
		s.jobs[rec.Job] = js
		s.order = append(s.order, rec.Job)
		s.events[rec.Job] = make([]Record, 0, 3) // a clean job's whole life: accept, start, done
	}
	switch rec.Op {
	case opAccept:
		if rec.Spec != nil {
			js.Spec = *rec.Spec
		}
		js.IdemKey = rec.IdemKey
		js.Phase = StateQueued
		js.SubmittedAt = rec.Time
		if rec.IdemKey != "" {
			s.idem[rec.IdemKey] = rec.Job
		}
	case opStart:
		js.Phase = StateRunning
		js.Attempt = rec.Attempt
		js.PID = rec.PID
		js.PIDStart = rec.PIDStart
		if js.FirstStartedAt == "" {
			js.FirstStartedAt = js.StartedAt
		}
		js.StartedAt = rec.Time
	case opAdopt:
		js.Phase = StateRunning
		js.PID = rec.PID
		js.PIDStart = rec.PIDStart
		js.Adopted = true
	case opExit:
		js.PID = 0
		js.PIDStart = 0
		js.Kind = rec.Kind
		js.Error = rec.Message
	case opDone:
		js.Phase = StateDone
		js.PID = 0
		js.PIDStart = 0
		js.Kind = ""
		js.Error = ""
		js.Result = rec.Result
		js.FinishedAt = rec.Time
	case opFail:
		js.Phase = StateFailed
		js.PID = 0
		js.PIDStart = 0
		js.Kind = rec.Kind
		js.Error = rec.Message
		js.FinishedAt = rec.Time
	case opState:
		// Synthetic snapshot summary; state already loaded from the
		// snapshot file. Only the event history carries it.
	}
	s.events[rec.Job] = append(s.events[rec.Job], rec)
}

// Append stamps, persists (write + fsync), and applies one record,
// returning the stamped record. The write hits disk before the state
// change is visible to readers — WAL discipline: a transition the
// daemon acted on is always recoverable. An error with a zero record
// means nothing was applied; an error with a stamped record means the
// record is durable and applied and only the compaction after it
// failed.
func (s *JobStore) Append(rec Record) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	rec.Seq = s.seq
	now := time.Now
	if s.now != nil {
		now = s.now
	}
	rec.Time = now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(rec)
	if err != nil {
		s.seq--
		return Record{}, fmt.Errorf("jobd: store encode: %w", err)
	}
	if _, err := s.f.Write(append(data, '\n')); err != nil {
		return Record{}, fmt.Errorf("jobd: store append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return Record{}, fmt.Errorf("jobd: store fsync: %w", err)
	}
	s.apply(rec)
	s.appended++
	close(s.watch)
	s.watch = make(chan struct{})
	if s.appended >= s.compactEvery {
		if err := s.compact(); err != nil {
			// Compaction failure is not fatal to the append: the WAL
			// already holds the record; the log just stays long.
			return rec, fmt.Errorf("jobd: store compact: %w", err)
		}
	}
	return rec, nil
}

// compact writes the materialized state as an atomic snapshot and
// replaces the log with an empty one. Called with mu held.
func (s *JobStore) compact() error {
	snap := storeSnapshot{LastSeq: s.seq}
	for _, id := range s.order {
		snap.Jobs = append(snap.Jobs, s.jobs[id])
	}
	data, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(s.dir, storeSnapFile), data, true); err != nil {
		return err
	}
	// Replace the log *after* the snapshot is durable. A crash between
	// the two renames leaves the old log in place; replay skips its
	// records via LastSeq.
	if err := atomicWrite(filepath.Join(s.dir, storeLogFile), nil, true); err != nil {
		return err
	}
	old := s.f
	f, err := os.OpenFile(filepath.Join(s.dir, storeLogFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	s.f = f
	s.appended = 0
	s.compactions++
	// The snapshot now says everything the event history of a finished
	// job says, so that history shrinks to what a reopened store would
	// hold: the one state record. Only for jobs untouched since the
	// *previous* compaction — a follower woken by a terminal record, the
	// one that triggered this compaction included, must still find it
	// here as itself when it gets the lock — and only for finished jobs:
	// the unfinished are bounded by the queue and the worker pool, and
	// their followers are the ones still reading.
	for id, evs := range s.events {
		js := s.jobs[id]
		if !js.terminal() || evs[len(evs)-1].Seq > s.collapsedSeq {
			continue
		}
		if len(evs) == 1 && evs[0].Op == opState {
			evs[0].Seq = s.seq // collapsed before: only the stamp moves
		} else {
			s.events[id] = []Record{stateRecord(js, s.seq)}
		}
	}
	s.collapsedSeq = s.seq
	return nil
}

// atomicWrite lands data at path via temp + rename — the same
// discipline as snapshot checkpoint writes, so a crash mid-write can
// never present a torn file. durable adds the fsync before the rename:
// the store must survive the host going down, while a worker's verdict
// only has to survive the worker dying.
func atomicWrite(path string, data []byte, durable bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".jobd-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Close closes the log file (the store stays readable in memory).
func (s *JobStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Skipped is the count of unparseable log lines tolerated at replay.
func (s *JobStore) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Job returns a copy of one job's materialized state.
func (s *JobStore) Job(id string) (JobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return JobState{}, false
	}
	return *js, true
}

// Jobs returns every job's materialized state in acceptance order.
func (s *JobStore) Jobs() []JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobState, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// view builds the externally visible Status of one job. It is the only
// constructor of a Status and a pure function of the materialised
// state: the derived fields (elapsed, queue wait, directory) are
// computed here from the durable stamps, never stored, so the answer
// cannot depend on which daemon incarnation is asked. Called with mu
// held.
func (s *JobStore) view(js *JobState) Status {
	started := js.FirstStartedAt
	if started == "" {
		started = js.StartedAt
	}
	return Status{
		ID:          js.ID,
		State:       js.Phase,
		Spec:        js.Spec,
		Attempts:    js.Attempt,
		PID:         js.PID,
		Adopted:     js.Adopted,
		Kind:        js.Kind,
		Error:       js.Error,
		SubmittedAt: js.SubmittedAt,
		StartedAt:   started,
		FinishedAt:  js.FinishedAt,
		ElapsedMs:   msBetween(js.SubmittedAt, js.FinishedAt),
		QueueWaitMs: msBetween(js.SubmittedAt, started),
		Result:      js.Result,
		Dir:         filepath.Join(s.dir, "jobs", js.ID),
	}
}

// msBetween is the whole milliseconds from one store stamp to a later
// one (0 when either is absent).
func msBetween(from, to string) int64 {
	a, b := parseRFC3339(from), parseRFC3339(to)
	if a.IsZero() || b.IsZero() {
		return 0
	}
	return b.Sub(a).Milliseconds()
}

// parseRFC3339 reads a store stamp back (zero time when absent or
// malformed).
func parseRFC3339(s string) time.Time {
	if s == "" {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

// status returns one job's externally visible status.
func (s *JobStore) status(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return s.view(js), true
}

// statuses returns job statuses in acceptance order, optionally
// restricted to one phase and capped at limit entries (limit <= 0 =
// unbounded). Only matching jobs are rendered and the walk stops at
// the limit, so a dispatcher's phase+limit poll costs O(limit) views,
// not one per job the daemon has ever run.
func (s *JobStore) statuses(phase State, limit int) []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.order)
	if limit > 0 {
		n = min(n, limit)
	}
	out := make([]Status, 0, n)
	for _, id := range s.order {
		js := s.jobs[id]
		if phase != "" && js.Phase != phase {
			continue
		}
		out = append(out, s.view(js))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// phaseCount counts the jobs currently in one lifecycle phase.
func (s *JobStore) phaseCount(phase State) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, js := range s.jobs {
		if js.Phase == phase {
			n++
		}
	}
	return n
}

// IdemLookup resolves an idempotency key to the job it accepted.
func (s *JobStore) IdemLookup(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.idem[key]
	return id, ok
}

// MaxID returns the highest numeric job ID in the store (0 when
// empty) — recovery resumes ID allocation past it.
func (s *JobStore) MaxID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0
	for _, id := range s.order {
		if n, err := strconv.Atoi(id); err == nil && n > max {
			max = n
		}
	}
	return max
}

// EventsWatch returns the job's event records with Seq > after,
// whether the job is terminal, and a channel closed on the next append
// anywhere in the store. ok is false when the job is unknown.
func (s *JobStore) EventsWatch(job string, after int64) (recs []Record, terminal bool, watch <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, found := s.jobs[job]
	if !found {
		return nil, false, nil, false
	}
	for _, rec := range s.events[job] {
		if rec.Seq > after {
			recs = append(recs, rec)
		}
	}
	return recs, js.terminal(), s.watch, true
}
