package jobd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestFinishedJobsDropTheirHandle: a forced drain stops the one job that
// still has a worker and leaves the jobs that finished before it as
// they were.
func TestFinishedJobsDropTheirHandle(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) { cfg.WorkerCommand = stubWorker(true) })
	defer drainDaemon(t, d) // a failure before the drain below must not leave the gated worker behind
	start := func() Status {
		t.Helper()
		sub, err := d.Submit(Spec{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return waitRunning(t, d, sub.ID)
	}
	for i := 0; i < 3; i++ {
		st := start()
		if err := os.WriteFile(filepath.Join(st.Dir, "go"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if fin := waitJob(t, d, st.ID, time.Minute); fin.State != StateDone {
			t.Fatalf("job %s ended %s (%s: %s)", st.ID, fin.State, fin.Kind, fin.Error)
		}
	}
	live := start() // held at its gate: the one job with a worker

	drainDaemon(t, d) // forced: the live worker's monitor stops it
	if fin, _ := d.Job(live.ID); fin.State != StateFailed || fin.Kind != "interrupted" {
		t.Fatalf("the live worker was not stopped by the drain: %s (%s: %s)", fin.State, fin.Kind, fin.Error)
	}
	if n := d.store.phaseCount(StateDone); n != 3 {
		t.Fatalf("%d jobs done after the drain, want the 3 that finished before it", n)
	}
}

// TestEventHistoryCollapsesBehindCompaction: a live store's per-job event
// history does not grow with every job it ever ran — a finished job's
// records shrink to the one synthetic state record a reopened store
// holds — but never under a follower: a record stays itself for a whole
// compaction interval after it was written.
func TestEventHistoryCollapsesBehindCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJobStore(dir, 4) // every fourth append compacts
	if err != nil {
		t.Fatal(err)
	}
	add := func(op, job string) {
		t.Helper()
		rec := Record{Op: op, Job: job}
		switch op {
		case opAccept:
			rec.Spec = &Spec{Seed: 1}
		case opStart:
			rec.Attempt, rec.PID, rec.PIDStart = 1, 10, 1
		case opDone:
			rec.Phase, rec.Result = StateDone, &Result{Cycles: 7}
		}
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	add(opAccept, "0001")
	add(opStart, "0001")
	// A follower has read this far and parks until job 0001 moves again.
	seen, _, _, _ := s.EventsWatch("0001", 0)
	if len(seen) != 2 {
		t.Fatalf("follower read %+v, want accept and start", seen)
	}
	after := seen[1].Seq

	add(opAccept, "0002")
	add(opDone, "0002") // seq 4: first compaction
	add(opAccept, "0003")
	add(opAccept, "0004")
	add(opAccept, "0005")
	add(opDone, "0001") // seq 8: second compaction, triggered by the follower's own record
	if s.Compactions() != 2 {
		t.Fatalf("%d compactions, want 2", s.Compactions())
	}
	woken, terminal, _, _ := s.EventsWatch("0001", after)
	if !terminal || len(woken) != 1 || woken[0].Op != opDone || woken[0].Result == nil {
		t.Fatalf("the follower parked across two compactions was handed %+v, want the done record as written", woken)
	}

	add(opDone, "0003")
	add(opDone, "0004")
	add(opDone, "0005")
	add(opAccept, "0006") // seq 12: third compaction; 0001 and 0002 are two generations old
	if s.Compactions() != 3 {
		t.Fatalf("%d compactions, want 3", s.Compactions())
	}
	live := map[string][]Record{}
	for _, id := range []string{"0001", "0002"} {
		live[id], _, _, _ = s.EventsWatch(id, 0)
		if len(live[id]) != 1 || live[id][0].Op != opState || live[id][0].Phase != StateDone {
			t.Errorf("job %s, finished two compactions ago, still streams %+v", id, live[id])
		}
	}
	s.Close()
	if s, err = OpenJobStore(dir, 4); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id, want := range live {
		if got, _, _, _ := s.EventsWatch(id, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("job %s: the live store streamed\n%+v\na reopened one streams\n%+v", id, want, got)
		}
	}
}

// TestExitRecordCarriesFailureDetail: what a worker's failure.json says
// beyond kind and message — whether a respawn may help, and where in the
// guest it stopped — is on the job's exit record, so on the event stream
// a client can read, not only in a file on the daemon's host.
func TestExitRecordCarriesFailureDetail(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) {
		cfg.WorkerCommand = func(jobDir string) *exec.Cmd {
			return exec.Command("sh", "-c", `echo '{"kind":"livelock","message":"no commit in 20000 cycles",`+
				`"retryable":true,"cycle":123456,"rip":4198400}' >"$0/failure.json"; exit 1`, jobDir)
		}
	})
	defer drainDaemon(t, d)
	sub, err := d.Submit(Spec{Seed: 1, Restarts: -1}) // no respawn: one exit, then the terminal fail
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, d, sub.ID, time.Minute); fin.State != StateFailed || fin.Kind != "livelock" {
		t.Fatalf("job ended %s (%s: %s), want failed with the worker's livelock", fin.State, fin.Kind, fin.Error)
	}
	recs, _, _, _ := d.Store().EventsWatch(sub.ID, 0)
	if len(recs) != 4 || recs[2].Op != opExit || !recs[2].Retryable ||
		recs[2].Cycle != 123456 || recs[2].RIP != 4198400 || recs[3].Op != opFail {
		t.Fatalf("records are not accept, start, exit (retryable, cycle 123456, rip 0x401000), fail: %+v", recs)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream, err := io.ReadAll(resp.Body) // the stream ends after the terminal record
	if err != nil {
		t.Fatal(err)
	}
	if want := `"retryable":true,"cycle":123456,"rip":4198400`; !strings.Contains(string(stream), "event: exit\n") ||
		!strings.Contains(string(stream), want) {
		t.Fatalf("event stream lacks an exit event carrying %s:\n%s", want, stream)
	}
}

// TestParentFormatStoreReplays: testdata/parent-store was written by the
// commit before exit records carried retryable / cycle / rip (a snapshot
// at seq 4, then start, exit, start in the log). It replays to the same
// statuses as the same history appended by this code.
func TestParentFormatStoreReplays(t *testing.T) {
	got, skipped, err := ReadJobStore(filepath.Join("testdata", "parent-store"))
	if err != nil || skipped != 0 {
		t.Fatalf("parent-format store: %v, %d line(s) skipped", err, skipped)
	}

	dir := t.TempDir()
	s, err := OpenJobStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { clock = clock.Add(1500 * time.Millisecond); return clock }
	for _, rec := range []Record{
		{Op: opAccept, Job: "0001", IdemKey: "k1", Spec: &Spec{Seed: 1, Tenant: "latency", Priority: 3}},
		{Op: opStart, Job: "0001", Attempt: 1, PID: 10, PIDStart: 100},
		{Op: opDone, Job: "0001", Phase: StateDone, Result: &Result{Cycles: 7, Insns: 5, Console: "stub", Attempts: 1}},
		{Op: opAccept, Job: "0002", Spec: &Spec{Seed: 2}},
		{Op: opStart, Job: "0002", Attempt: 1, PID: 11, PIDStart: 101},
		{Op: opExit, Job: "0002", Attempt: 1, Kind: "panic", Message: "worker died: signal: killed", Retryable: true},
		{Op: opStart, Job: "0002", Attempt: 2, PID: 12, PIDStart: 102},
	} {
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := s.statuses("", 0)
	for i := range want {
		want[i].Dir = filepath.Join("testdata", "parent-store", "jobs", want[i].ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parent-format store replays to\n%+v\nthe same history written now to\n%+v", got, want)
	}
	if len(got) != 2 || got[1].State != StateRunning || got[1].Attempts != 2 || got[1].QueueWaitMs != 1500 {
		t.Fatalf("job 0002 replayed as %+v, want running, attempt 2, queue wait 1500ms", got[1])
	}
}
