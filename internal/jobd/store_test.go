package jobd

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func acceptRec(id, idemKey string) Record {
	spec := Spec{Scale: "small", Seed: 42}
	return Record{Op: opAccept, Job: id, IdemKey: idemKey, Spec: &spec}
}

func TestStoreReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend := func(rec Record) {
		t.Helper()
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(acceptRec("0001", "key-a"))
	mustAppend(Record{Op: opStart, Job: "0001", Attempt: 1, PID: 4242, PIDStart: 987654})
	mustAppend(Record{Op: opDone, Job: "0001", Phase: StateDone,
		Result: &Result{Cycles: 100, Insns: 50, Console: "ok"}})
	mustAppend(acceptRec("0002", ""))
	mustAppend(Record{Op: opStart, Job: "0002", Attempt: 2, PID: 777, PIDStart: 111222})
	s.Close()

	// A fresh open — the daemon restarting — replays the same state.
	s2, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Skipped() != 0 {
		t.Fatalf("clean log skipped %d lines", s2.Skipped())
	}
	if got := s2.MaxID(); got != 2 {
		t.Fatalf("MaxID = %d, want 2", got)
	}
	js, ok := s2.Job("0001")
	if !ok || js.Phase != StateDone || js.Result == nil || js.Result.Cycles != 100 {
		t.Fatalf("job 0001 replayed wrong: %+v", js)
	}
	if js.PID != 0 {
		t.Fatalf("terminal job kept pid %d", js.PID)
	}
	if js.SubmittedAt == "" || js.FinishedAt == "" {
		t.Fatalf("timestamps lost: %+v", js)
	}
	js2, ok := s2.Job("0002")
	if !ok || js2.Phase != StateRunning || js2.PID != 777 || js2.PIDStart != 111222 || js2.Attempt != 2 {
		t.Fatalf("job 0002 replayed wrong: %+v", js2)
	}
	if id, ok := s2.IdemLookup("key-a"); !ok || id != "0001" {
		t.Fatalf("idempotency mapping lost: %q %v", id, ok)
	}
	if _, ok := s2.IdemLookup("key-zzz"); ok {
		t.Fatal("unknown idempotency key resolved")
	}
}

func TestStoreCompactionBoundsLogAndSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJobStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		id := []string{"", "0001", "0002", "0003", "0004", "0005"}[i]
		if _, err := s.Append(acceptRec(id, "")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Append(Record{Op: opDone, Job: "0001", Phase: StateDone,
		Result: &Result{Cycles: 7}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// 6 appends with compactEvery=4: at least one compaction ran, so the
	// snapshot exists and the log holds fewer lines than total appends.
	if _, err := os.Stat(filepath.Join(dir, storeSnapFile)); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	log, err := os.ReadFile(filepath.Join(dir, storeLogFile))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(log), "\n"); lines >= 6 {
		t.Fatalf("log not compacted: %d lines", lines)
	}

	states, skipped, err := ReadJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d lines", skipped)
	}
	if len(states) != 5 {
		t.Fatalf("replayed %d jobs, want 5", len(states))
	}
	byID := map[string]Status{}
	for _, st := range states {
		byID[st.ID] = st
	}
	if byID["0001"].State != StateDone || byID["0001"].Result.Cycles != 7 {
		t.Fatalf("compacted job 0001 wrong: %+v", byID["0001"])
	}
	for _, id := range []string{"0002", "0003", "0004", "0005"} {
		if byID[id].State != StateQueued {
			t.Fatalf("job %s state %s, want queued", id, byID[id].State)
		}
	}

	// Event history across compaction: a client reconnecting from seq 0
	// still sees the job's current phase (as the synthetic state record)
	// even though the raw accept record was compacted away.
	s3, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	recs, terminal, _, ok := s3.EventsWatch("0001", 0)
	if !ok || !terminal || len(recs) == 0 {
		t.Fatalf("events after compaction: ok=%v terminal=%v n=%d", ok, terminal, len(recs))
	}
	last := recs[len(recs)-1]
	if last.Phase != StateDone {
		t.Fatalf("replayed event history does not end done: %+v", last)
	}
}

func TestStoreTornLinesSkipped(t *testing.T) {
	dir := t.TempDir()
	a, _ := json.Marshal(acceptRec("0001", ""))
	b, _ := json.Marshal(Record{Seq: 3, Op: opAccept, Job: "0002", Spec: &Spec{Scale: "small"}})
	// A torn middle line (crash mid-append followed by post-restart
	// appends) and a torn final line.
	log := string(a) + "\n" + `{"seq":2,"op":"acc` + "\n" + string(b) + "\n" + `{"seq":4,"op":`
	if err := os.WriteFile(filepath.Join(dir, storeLogFile), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	states, skipped, err := ReadJobStore(dir)
	if err != nil {
		t.Fatalf("torn log fatal: %v", err)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if len(states) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(states))
	}

	// A writable open over the same torn log keeps appending past it.
	s, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(Record{Op: opDone, Job: "0001", Phase: StateDone}); err != nil {
		t.Fatal(err)
	}
	js, _ := s.Job("0001")
	if js.Phase != StateDone {
		t.Fatalf("append after torn replay: %+v", js)
	}
}

// TestStoreSnapshotOverlapIdempotent simulates the crash window between
// the snapshot rename and the log rotation: the old log (records the
// snapshot already covers) is still in place. Replay must skip those
// records rather than double-apply them.
func TestStoreSnapshotOverlapIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJobStore(dir, 2) // compacts on the 2nd append
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(acceptRec("0001", "k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Record{Op: opStart, Job: "0001", Attempt: 1, PID: 99, PIDStart: 5}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Re-create the pre-compaction log next to the snapshot, as if the
	// crash hit between the two renames.
	oldA, _ := json.Marshal(Record{Seq: 1, Op: opAccept, Job: "0001", IdemKey: "k1",
		Spec: &Spec{Scale: "small", Seed: 42}})
	oldB, _ := json.Marshal(Record{Seq: 2, Op: opStart, Job: "0001", Attempt: 1, PID: 99, PIDStart: 5})
	stale := string(oldA) + "\n" + string(oldB) + "\n"
	if err := os.WriteFile(filepath.Join(dir, storeLogFile), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	js, ok := s2.Job("0001")
	if !ok || js.Phase != StateRunning || js.Attempt != 1 || js.PID != 99 {
		t.Fatalf("overlap replay wrong: %+v", js)
	}
	if len(s2.Jobs()) != 1 {
		t.Fatalf("job duplicated: %d jobs", len(s2.Jobs()))
	}
	// New appends continue past the snapshot's sequence.
	rec, err := s2.Append(Record{Op: opDone, Job: "0001", Phase: StateDone})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq <= 2 {
		t.Fatalf("sequence regressed to %d", rec.Seq)
	}
}

func TestStoreExistsDetection(t *testing.T) {
	dir := t.TempDir()
	if StoreExists(dir) {
		t.Fatal("empty dir detected as store")
	}
	s, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !StoreExists(dir) {
		t.Fatal("store dir not detected")
	}
}
