package jobd

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ptlsim/internal/supervisor"
)

// stubWorker is a worker that simulates nothing: it ends the way its
// spec's seed says — seed 2 with the setup exit code (a terminal
// "error"), any other seed with a result — and, when gated, only after
// the test creates <jobDir>/go.
func stubWorker(gated bool) func(string) *exec.Cmd {
	script := `
if grep -q '"seed": 2' "$0/spec.json"; then exit 2; fi
echo '{"cycles":7,"insns":5,"console":"stub"}' >"$0/result.tmp" && mv "$0/result.tmp" "$0/result.json"`
	if gated {
		script = `while [ ! -e "$0/go" ]; do sleep 0.01; done` + script
	}
	return func(jobDir string) *exec.Cmd { return exec.Command("sh", "-c", script, jobDir) }
}

func isTerminal(st Status) bool { return st.State == StateDone || st.State == StateFailed }

func waitRunning(t *testing.T, d *Daemon, id string) Status {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st, _ := d.Job(id); st.State == StateRunning {
			return st
		}
	}
	t.Fatalf("job %s never started", id)
	return Status{}
}

// TestStatusIdenticalAcrossRestart: a finished job's status is a pure
// function of the durable store, so the daemon that ran the job and a
// daemon restarted on the same directory report it field for field the
// same — stamps, derived durations and all.
func TestStatusIdenticalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *Daemon {
		return newDaemon(t, nil, func(cfg *Config) {
			cfg.Dir = dir
			cfg.WorkerCommand = stubWorker(false)
		})
	}
	d := open()
	want := map[string]Status{}
	for seed, state := range map[int64]State{1: StateDone, 2: StateFailed} {
		st, err := d.Submit(Spec{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fin := waitJob(t, d, st.ID, time.Minute)
		if fin.State != state {
			t.Fatalf("seed %d ended %s (%s: %s), want %s", seed, fin.State, fin.Kind, fin.Error, state)
		}
		want[st.ID] = fin
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Close(); err != nil {
		t.Fatal(err)
	}

	d2 := open()
	defer drainDaemon(t, d2)
	for id, before := range want {
		after, ok := d2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across the restart", id)
		}
		if !reflect.DeepEqual(before, after) {
			b, _ := json.Marshal(before)
			a, _ := json.Marshal(after)
			t.Errorf("job %s reports differently after the restart:\nbefore %s\nafter  %s", id, b, a)
		}
	}
}

// TestTerminalStateNeverAheadOfStore: a terminal state is visible
// exactly when its record is durable, never before. The store's clock
// seam is read inside Append before the write, so parking it holds the
// terminal record at the point where nothing of it is on disk yet; a
// reader asking then must not be told done/failed, and is told the
// moment the append returns.
func TestTerminalStateNeverAheadOfStore(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		want    State
		appends int // records from running to terminal: done | exit, fail
	}{{1, StateDone, 1}, {2, StateFailed, 2}} {
		t.Run(string(tc.want), func(t *testing.T) {
			d := newDaemon(t, nil, func(cfg *Config) { cfg.WorkerCommand = stubWorker(true) })
			defer drainDaemon(t, d)
			sub, err := d.Submit(Spec{Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			// Running: the start record is durable and the worker is
			// held at its gate, so the appends from here on are the
			// job's end.
			st := waitRunning(t, d, sub.ID)

			entered, release := make(chan struct{}), make(chan struct{})
			defer close(release) // un-park the store before the deferred drain
			calls := 0
			d.store.mu.Lock()
			d.store.now = func() time.Time { // called with the store locked
				if calls++; calls == tc.appends {
					close(entered)
					<-release
				}
				return time.Now()
			}
			d.store.mu.Unlock()
			if err := os.WriteFile(filepath.Join(st.Dir, "go"), nil, 0o644); err != nil {
				t.Fatal(err)
			}

			select {
			case <-entered:
			case <-time.After(time.Minute):
				t.Fatal("the terminal record never reached the store")
			}
			read := make(chan Status, 1)
			go func() {
				st, _ := d.Job(sub.ID)
				read <- st
			}()
			waited := false
			select {
			case st := <-read:
				if isTerminal(st) {
					t.Fatalf("Job reports %s while that record is parked before its write", st.State)
				}
			case <-time.After(100 * time.Millisecond):
				waited = true // on the append: a reader cannot be ahead of it
			}
			release <- struct{}{}
			if waited {
				if st := <-read; st.State != tc.want {
					t.Fatalf("the reader that waited for the append was told %s (%s: %s), want %s",
						st.State, st.Kind, st.Error, tc.want)
				}
			}
			if fin := waitJob(t, d, sub.ID, time.Minute); fin.State != tc.want {
				t.Fatalf("job ended %s (%s: %s), want %s", fin.State, fin.Kind, fin.Error, tc.want)
			}
		})
	}
}

// TestFailedAppendLeavesLastDurablePhase: with one copy of the state, a
// transition whose record cannot be written did not happen. The job
// stays in its last durable phase, the failure is counted and
// journalled, and a restarted daemon picks the job up from there — here
// from the result.json the worker left.
func TestFailedAppendLeavesLastDurablePhase(t *testing.T) {
	dir := t.TempDir()
	jb := &syncBuffer{}
	d := newDaemon(t, jb, func(cfg *Config) {
		cfg.Dir = dir
		cfg.WorkerCommand = stubWorker(true)
	})
	sub, err := d.Submit(Spec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitRunning(t, d, sub.ID)
	if err := d.Store().Close(); err != nil { // the log file goes away under the running job
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir, "go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	journalled := false
	for deadline := time.Now().Add(time.Minute); !journalled; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failed append was never journalled")
		}
		for _, e := range jb.entries(t) {
			if e.Event == supervisor.EventFailure && e.Kind == "store" && e.Job == sub.ID {
				journalled = true
			}
		}
	}
	recs, _, _, _ := d.Store().EventsWatch(sub.ID, 0)
	for _, rec := range recs {
		if rec.Op == opDone {
			t.Fatalf("a done record exists for a transition that did not happen: %+v", rec)
		}
	}
	if n := d.Counters()["jobd.store.append_errors"]; n != 1 {
		t.Fatalf("jobd.store.append_errors = %d, want 1", n)
	}
	if got, _ := d.Job(sub.ID); got.State != StateRunning || got.Result != nil {
		t.Fatalf("job left its last durable phase: %s, result %v", got.State, got.Result)
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	d2 := newDaemon(t, nil, func(cfg *Config) {
		cfg.Dir = dir
		cfg.WorkerCommand = stubWorker(false)
	})
	defer drainDaemon(t, d2)
	fin := waitJob(t, d2, sub.ID, time.Minute)
	if fin.State != StateDone || fin.Result == nil || fin.Result.Cycles != 7 || fin.Attempts != 1 {
		t.Fatalf("restart did not complete the job from its result file: %+v", fin)
	}
}

// TestQueueWaitEndsAtFirstAttempt: a respawn moves the newest attempt's
// start (the deadline base) but not the end of the queue wait, and a
// replay — from the log or from a compaction snapshot — answers the
// same as the store that took the appends.
func TestQueueWaitEndsAtFirstAttempt(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJobStore(dir, 5) // the fifth append compacts
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return clock }
	for _, step := range []struct {
		after time.Duration
		rec   Record
	}{
		{0, Record{Op: opAccept, Job: "0001", Spec: &Spec{Seed: 1}}},
		{time.Second, Record{Op: opStart, Job: "0001", Attempt: 1, PID: 10, PIDStart: 1}},
		{time.Second, Record{Op: opExit, Job: "0001", Attempt: 1, Kind: "panic", Message: "worker died"}},
		{3 * time.Second, Record{Op: opStart, Job: "0001", Attempt: 2, PID: 11, PIDStart: 2}},
	} {
		clock = clock.Add(step.after)
		if _, err := s.Append(step.rec); err != nil {
			t.Fatal(err)
		}
	}
	live, _ := s.status("0001")
	if live.QueueWaitMs != 1000 || live.StartedAt != "2026-01-01T00:00:01Z" || live.Attempts != 2 {
		t.Fatalf("queue wait %dms, started %s, %d attempts; want 1000ms, the first attempt's start, 2",
			live.QueueWaitMs, live.StartedAt, live.Attempts)
	}
	if js, _ := s.Job("0001"); js.StartedAt != "2026-01-01T00:00:05Z" {
		t.Fatalf("newest attempt's start %s, want 00:00:05", js.StartedAt)
	}
	check := func(when string, want Status) {
		t.Helper()
		s.Close()
		if s, err = OpenJobStore(dir, 5); err != nil {
			t.Fatal(err)
		}
		if got, _ := s.status("0001"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replay answers\n%+v\nwant\n%+v", when, got, want)
		}
	}
	check("from the log", live)

	clock = clock.Add(time.Second)
	s.now = func() time.Time { return clock }
	if _, err := s.Append(Record{Op: opDone, Job: "0001", Result: &Result{Cycles: 7}}); err != nil {
		t.Fatal(err)
	}
	if s.Compactions() != 1 {
		t.Fatalf("%d compactions, want 1", s.Compactions())
	}
	fin, _ := s.status("0001")
	if fin.ElapsedMs != 6000 || fin.QueueWaitMs != 1000 {
		t.Fatalf("elapsed %dms, queue wait %dms; want 6000, 1000", fin.ElapsedMs, fin.QueueWaitMs)
	}
	check("from the snapshot", fin)
	s.Close()
}
