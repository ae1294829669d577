package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ptlsim/internal/supervisor"
)

// TestMain doubles as the worker entry point: the daemon under test
// re-execs this test binary with PTLSERVE_WORKER_DIR set, exactly as
// cmd/ptlserve re-execs itself with -ptlserve-worker. That keeps the
// e2e tests honest — workers really are separate processes that can be
// SIGKILL'd without touching the daemon.
// It also doubles as a daemon entry point: PTLSERVE_DAEMON_DIR runs a
// full daemon + HTTP server on that data directory (daemonMain in
// restart_test.go), so the restart tests can SIGKILL a real daemon
// process — not a goroutine — and prove recovery from the job store.
// After the tests it fails the run if a daemon's process group still
// has a member: no daemon or worker the tests started outlives them.
func TestMain(m *testing.M) {
	if dir := os.Getenv("PTLSERVE_WORKER_DIR"); dir != "" {
		os.Exit(WorkerMain(dir, os.Stderr))
	}
	if dir := os.Getenv("PTLSERVE_DAEMON_DIR"); dir != "" {
		os.Exit(daemonMain(dir))
	}
	code := m.Run()
	if left := liveGroups(2 * time.Second); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: daemon process groups %v still have members after the tests\n", left)
		for _, pgid := range left {
			syscall.Kill(-pgid, syscall.SIGKILL)
		}
		code = 1
	}
	os.Exit(code)
}

// liveGroups polls the process groups startDaemonProc created until all
// are empty or wait has passed, and returns those that are not.
func liveGroups(wait time.Duration) []int {
	daemonGroups.Lock()
	defer daemonGroups.Unlock()
	for deadline := time.Now().Add(wait); ; time.Sleep(10 * time.Millisecond) {
		var left []int
		for _, pgid := range daemonGroups.pgids {
			if syscall.Kill(-pgid, 0) == nil {
				left = append(left, pgid)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
	}
}

// selfWorker builds WorkerCommand funcs that re-exec the test binary in
// worker mode.
func selfWorker(t *testing.T) func(string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(jobDir string) *exec.Cmd {
		cmd := exec.Command(exe)
		cmd.Env = []string{"PTLSERVE_WORKER_DIR=" + jobDir}
		return cmd
	}
}

// syncBuffer is a goroutine-safe journal sink for tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) entries(t *testing.T) []supervisor.Entry {
	t.Helper()
	s.mu.Lock()
	data := append([]byte(nil), s.b.Bytes()...)
	s.mu.Unlock()
	es, err := supervisor.ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	return es
}

func newDaemon(t *testing.T, jb *syncBuffer, mut func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Dir:              t.TempDir(),
		WorkerCommand:    selfWorker(t),
		Workers:          1,
		QueueDepth:       8,
		PollInterval:     10 * time.Millisecond,
		HeartbeatTimeout: 30 * time.Second,
		Deadline:         5 * time.Minute,
	}
	if jb != nil {
		cfg.Journal = jb
	}
	if mut != nil {
		mut(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	return d
}

// smallSpec is the quick end-to-end workload (one file, one round trip;
// finishes in well under a second of wall clock).
func smallSpec() Spec {
	return Spec{Scale: "bench", NFiles: 1, FileSize: 1024, Seed: 5, Change: 0.4,
		Timer: 4_000_000_000, MaxCycles: -1, CheckpointCycles: 50_000}
}

// killSpec is a longer workload with a tight checkpoint cadence: plenty
// of rotation slots land before it finishes, which gives the SIGKILL
// test a wide window to murder the worker mid-run.
func killSpec() Spec {
	return Spec{Scale: "bench", NFiles: 2, FileSize: 4096, Seed: 9, Change: 0.5,
		Timer: 4_000_000_000, MaxCycles: -1, CheckpointCycles: 25_000}
}

func waitJob(t *testing.T, d *Daemon, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := d.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := d.Job(id)
	t.Fatalf("job %s did not finish in %v (state %s, kind %s, err %q)",
		id, timeout, st.State, st.Kind, st.Error)
	return Status{}
}

// drainDaemon force-stops a daemon whose stub workers never finish: an
// already-cancelled drain context goes straight to SIGTERM/SIGKILL.
func drainDaemon(t *testing.T, d *Daemon) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.Drain(ctx)
}

func TestJobCompletes(t *testing.T) {
	d := newDaemon(t, nil, nil)
	st, err := d.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, d, st.ID, 2*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("state %s, kind %s: %s", fin.State, fin.Kind, fin.Error)
	}
	if fin.Result == nil {
		t.Fatal("done job has no result")
	}
	if !strings.Contains(fin.Result.Console, "rsync ok") {
		t.Fatalf("guest console missing success marker:\n%s", fin.Result.Console)
	}
	if got := consoleFNV(fin.Result.Console); got != fin.Result.ConsoleFNV {
		t.Fatalf("console FNV mismatch: %#x vs %#x", got, fin.Result.ConsoleFNV)
	}
	if fin.Attempts != 1 {
		t.Fatalf("clean job took %d attempts", fin.Attempts)
	}
	// The worker checkpointed into the job dir; the slots must be
	// intact (this is also what a respawn would restore from).
	slots, _ := filepath.Glob(filepath.Join(fin.Dir, ckptSubdir, "*.ckpt"))
	if len(slots) == 0 {
		t.Fatal("no rotation slots in job dir")
	}

	// HTTP view of the same job.
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", st.ID, resp.StatusCode)
	}
	var hst Status
	if err := json.NewDecoder(resp.Body).Decode(&hst); err != nil {
		t.Fatal(err)
	}
	if hst.State != StateDone || hst.Result == nil || hst.Result.ConsoleFNV != fin.Result.ConsoleFNV {
		t.Fatalf("HTTP status disagrees with daemon: %+v", hst)
	}
	if resp, err := http.Get(srv.URL + "/jobs/9999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/9999: %v %v", resp.StatusCode, err)
	}

	// The job's own account, its store records: accept → start → done,
	// in that order and nothing else.
	recs, terminal, _, _ := d.Store().EventsWatch(st.ID, 0)
	if !terminal || len(recs) != 3 ||
		recs[0].Op != opAccept ||
		recs[1].Op != opStart || recs[1].PID <= 0 ||
		recs[2].Op != opDone || recs[2].Result == nil || recs[2].Result.Insns <= 0 {
		t.Fatalf("store records are not accept, start (pid > 0), done (insns > 0): terminal=%v %+v",
			terminal, recs)
	}
}

// TestFirstWindowJobWritesNoSlot: a job that ends inside its first
// checkpoint window — the size of every serve_closed job — keeps its
// genesis in memory, so it leaves ckpt/ empty and journals no
// checkpoint.
func TestFirstWindowJobWritesNoSlot(t *testing.T) {
	ckptDir := filepath.Join(t.TempDir(), ckptSubdir)
	var journal bytes.Buffer
	res, err := runJob(context.Background(), &Spec{Scale: "small", Mode: "native"}, ckptDir, &journal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Console, "rsync ok") || res.FinalSlot != "" {
		t.Fatalf("result: final slot %q, console %q", res.FinalSlot, res.Console)
	}
	if slots, _ := os.ReadDir(ckptDir); len(slots) != 0 {
		t.Fatalf("ckpt/ holds %d file(s), want none", len(slots))
	}
	entries, err := supervisor.ReadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Event == supervisor.EventCheckpoint {
			t.Fatalf("journaled a checkpoint: %+v", e)
		}
	}
}

// TestWorkerKilledMidJobResumesBitIdentical is the acceptance test for
// the isolation tentpole: SIGKILL a worker mid-run (from outside — the
// daemon has no idea it is coming), and the job must still finish, by
// respawn + restore from the rotated checkpoint directory, with guest
// output bit-identical to an unkilled run. A second job queued behind
// the victim must be unaffected.
func TestWorkerKilledMidJobResumesBitIdentical(t *testing.T) {
	spec := killSpec()

	// Reference: the same workload, never killed.
	clean := func() *Result {
		d := newDaemon(t, nil, nil)
		st, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin := waitJob(t, d, st.ID, 3*time.Minute)
		if fin.State != StateDone {
			t.Fatalf("clean run failed: %s %s", fin.Kind, fin.Error)
		}
		return fin.Result
	}()
	if !strings.Contains(clean.Console, "rsync ok") {
		t.Fatalf("clean run missing success marker:\n%s", clean.Console)
	}

	d := newDaemon(t, nil, nil) // Workers: 1 — the bystander queues behind the victim
	victim, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim's worker as soon as it has both a live PID and at
	// least one rotation slot to resume from.
	killDeadline := time.Now().Add(2 * time.Minute)
	killed := false
	for !killed {
		if time.Now().After(killDeadline) {
			t.Fatal("never caught the victim worker alive with a checkpoint slot")
		}
		st, _ := d.Job(victim.ID)
		if st.State == StateDone || st.State == StateFailed {
			t.Fatalf("victim finished (%s) before the kill landed — widen killSpec", st.State)
		}
		if st.PID > 0 {
			slots, _ := filepath.Glob(filepath.Join(st.Dir, ckptSubdir, "*.ckpt"))
			if len(slots) > 0 {
				if err := syscall.Kill(st.PID, syscall.SIGKILL); err == nil {
					killed = true
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	vfin := waitJob(t, d, victim.ID, 3*time.Minute)
	if vfin.State != StateDone {
		t.Fatalf("killed job did not recover: %s %s: %s", vfin.State, vfin.Kind, vfin.Error)
	}
	if vfin.Attempts < 2 {
		t.Fatalf("killed job finished in %d attempt(s) — the kill did not land mid-run", vfin.Attempts)
	}
	// Bit-identical guest output after the SIGKILL + resume.
	if vfin.Result.Console != clean.Console {
		t.Fatalf("resumed console differs from clean run:\nclean:\n%s\nresumed:\n%s",
			clean.Console, vfin.Result.Console)
	}
	if vfin.Result.ConsoleFNV != clean.ConsoleFNV ||
		vfin.Result.Cycles != clean.Cycles || vfin.Result.Insns != clean.Insns {
		t.Fatalf("resumed run not bit-identical: cycles %d vs %d, insns %d vs %d, fnv %#x vs %#x",
			vfin.Result.Cycles, clean.Cycles, vfin.Result.Insns, clean.Insns,
			vfin.Result.ConsoleFNV, clean.ConsoleFNV)
	}

	// The concurrently queued job is unaffected — same deterministic
	// output, one attempt.
	bfin := waitJob(t, d, bystander.ID, 3*time.Minute)
	if bfin.State != StateDone || bfin.Attempts != 1 {
		t.Fatalf("bystander affected by victim's death: state %s, %d attempts, %s",
			bfin.State, bfin.Attempts, bfin.Error)
	}
	if bfin.Result.ConsoleFNV != clean.ConsoleFNV {
		t.Fatal("bystander guest output differs from clean run")
	}

	// The death is on the job's record: an abnormal worker exit (panic —
	// an unexplained SIGKILL), retryable, and the respawn right after it.
	recs, _, _, _ := d.Store().EventsWatch(victim.ID, 0)
	sawRetry := false
	for i, rec := range recs[:len(recs)-1] {
		if rec.Op == opExit && rec.Kind == "panic" && rec.Retryable {
			next := recs[i+1]
			sawRetry = next.Op == opStart && next.Attempt == 2
			break
		}
	}
	if !sawRetry {
		t.Fatalf("store records miss a retryable panic exit followed by the start of attempt 2: %+v", recs)
	}
	if n := d.Counters()["jobd.jobs.retried"]; n < 1 {
		t.Fatalf("jobd.jobs.retried = %d", n)
	}
}

func TestDrainGraceful(t *testing.T) {
	jb := &syncBuffer{}
	d := newDaemon(t, jb, nil)
	st, err := d.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	if resp, _ := http.Get(srv.URL + "/readyz"); resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatal("readyz not ready before drain")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- d.Drain(ctx) }()

	// Admission closes immediately, well before the running job ends.
	for i := 0; d.Accepting(); i++ {
		if i > 1000 {
			t.Fatal("daemon still accepting after Drain")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := d.Submit(smallSpec()); err != ErrDraining {
		t.Fatalf("submit while draining: %v", err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"scale":"small"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs while draining: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL + "/readyz"); resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatal("readyz still ready while draining")
	}

	// The running job finishes; drain completes cleanly.
	if err := <-drained; err != nil {
		t.Fatalf("drain forced: %v", err)
	}
	fin, _ := d.Job(st.ID)
	if fin.State != StateDone {
		t.Fatalf("in-flight job lost to drain: %s %s", fin.State, fin.Error)
	}

	// The journal renders through the shared report machinery.
	var report bytes.Buffer
	supervisor.WriteReport(&report, jb.entries(t), 0)
	out := report.String()
	if !strings.Contains(out, "service drained cleanly") {
		t.Fatalf("report missing drain outcome:\n%s", out)
	}
	if !strings.Contains(out, "service:") {
		t.Fatalf("report missing service summary:\n%s", out)
	}
}

// TestKilledJobWithEverySlotCorruptRebootsFromSpec: a worker killed
// after corrupting every slot of its rotation leaves nothing to resume
// from. The respawned worker boots the spec again — the spec is the
// genesis — and finishes with the unkilled run's cycles, instructions
// and console.
func TestKilledJobWithEverySlotCorruptRebootsFromSpec(t *testing.T) {
	spec := killSpec()
	clean := func() *Result {
		d := newDaemon(t, nil, nil)
		st, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin := waitJob(t, d, st.ID, 3*time.Minute)
		if fin.State != StateDone {
			t.Fatalf("clean run failed: %s %s", fin.Kind, fin.Error)
		}
		return fin.Result
	}()

	d := newDaemon(t, nil, nil)
	victim, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Stop the worker once it has a slot, so it writes no new one while
	// every slot on disk is corrupted; then kill it.
	var corrupted []string
	for deadline := time.Now().Add(2 * time.Minute); corrupted == nil; time.Sleep(2 * time.Millisecond) {
		st, _ := d.Job(victim.ID)
		if isTerminal(st) || time.Now().After(deadline) {
			t.Fatalf("never caught the victim worker alive with a checkpoint slot (state %s)", st.State)
		}
		slots, _ := filepath.Glob(filepath.Join(st.Dir, ckptSubdir, "*.ckpt"))
		if st.PID <= 0 || len(slots) == 0 || syscall.Kill(st.PID, syscall.SIGSTOP) != nil {
			continue
		}
		slots, _ = filepath.Glob(filepath.Join(st.Dir, ckptSubdir, "*.ckpt"))
		for _, slot := range slots {
			data, err := os.ReadFile(slot)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-10] ^= 0xff
			if err := os.WriteFile(slot, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := syscall.Kill(st.PID, syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		corrupted = slots
	}

	fin := waitJob(t, d, victim.ID, 3*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("killed job did not recover: %s %s: %s", fin.State, fin.Kind, fin.Error)
	}
	if fin.Attempts < 2 {
		t.Fatalf("killed job finished in %d attempt(s)", fin.Attempts)
	}
	if fin.Result.Console != clean.Console || fin.Result.Cycles != clean.Cycles || fin.Result.Insns != clean.Insns {
		t.Fatalf("re-booted run differs from the clean run: cycles %d vs %d, insns %d vs %d, console equal %v",
			fin.Result.Cycles, clean.Cycles, fin.Result.Insns, clean.Insns, fin.Result.Console == clean.Console)
	}
	// The respawned worker started where the first one did: at boot, not
	// at any of the corrupted slots.
	f, err := os.Open(filepath.Join(fin.Dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := supervisor.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	var starts []uint64
	for _, e := range entries {
		if e.Event == supervisor.EventRunStart && e.Attempt == 1 {
			starts = append(starts, e.Cycle)
		}
	}
	if len(starts) < 2 || starts[len(starts)-1] != starts[0] {
		t.Fatalf("worker runs started at cycles %v; the respawn should start at boot, cycle %v (corrupted %v)",
			starts, starts[:1], corrupted)
	}
	// And the journal says why: one discard_slot entry per corrupted
	// slot, from the respawn that found them unusable.
	// They share the respawned run's start with the entries the
	// supervisor writes after them.
	discarded := map[string]int{}
	for i, e := range entries {
		if e.Event != supervisor.EventDiscardSlot {
			continue
		}
		discarded[filepath.Base(e.Slot)]++
		for _, next := range entries[i+1:] {
			if next.Event == supervisor.EventRunStart {
				if next.Started != e.Started {
					t.Errorf("discard_slot entry for %s started %s, the run it precedes %s", filepath.Base(e.Slot), e.Started, next.Started)
				}
				break
			}
		}
	}
	for _, slot := range corrupted {
		if n := discarded[filepath.Base(slot)]; n != 1 {
			t.Errorf("%d discard_slot entries for corrupted slot %s, want 1 (journal: %v)", n, filepath.Base(slot), discarded)
		}
	}
	if len(discarded) != len(corrupted) {
		t.Errorf("discard_slot entries for %v, corrupted %v", discarded, corrupted)
	}
}

// TestDrainForcedWritesFinalCheckpoint: a drain whose context has
// expired stops a real worker with SIGTERM first, so the supervisor
// inside it writes a final checkpoint and journals the interrupt before
// the grace runs out — a forced drain loses no progress.
func TestDrainForcedWritesFinalCheckpoint(t *testing.T) {
	// The grace is five polls: 5 s leaves room for a race-built worker's
	// final checkpoint.
	d := newDaemon(t, nil, func(cfg *Config) { cfg.PollInterval = time.Second })
	st, err := d.Submit(killSpec())
	if err != nil {
		t.Fatal(err)
	}
	rotation := supervisor.Store{Dir: filepath.Join(st.Dir, ckptSubdir)}
	for deadline := time.Now().Add(2 * time.Minute); len(rotation.Slots()) == 0; time.Sleep(2 * time.Millisecond) {
		if cur, _ := d.Job(st.ID); isTerminal(cur) || time.Now().After(deadline) {
			t.Fatalf("job %s is %s with no checkpoint — widen killSpec", st.ID, cur.State)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Drain(ctx); err != context.Canceled {
		t.Fatalf("forced drain returned %v, want %v", err, context.Canceled)
	}
	if fin, _ := d.Job(st.ID); fin.State != StateFailed || fin.Kind != "interrupted" {
		t.Fatalf("drained job ended %s (%s: %s), want failed/interrupted", fin.State, fin.Kind, fin.Error)
	}
	f, err := os.Open(filepath.Join(st.Dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := supervisor.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	var final string
	for _, e := range entries {
		if e.Event == supervisor.EventInterrupt {
			final = e.Slot
		}
	}
	if slots := rotation.Slots(); final == "" || len(slots) == 0 || slots[0] != final {
		t.Fatalf("worker journal's interrupt entry names slot %q; the rotation holds %v", final, slots)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) {
		// Stub workers that never finish: the queue stays full.
		cfg.WorkerCommand = func(string) *exec.Cmd { return exec.Command("sleep", "60") }
		cfg.QueueDepth = 1
	})
	defer drainDaemon(t, d)

	first, err := d.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the runner to take it off the queue.
	for i := 0; ; i++ {
		st, _ := d.Job(first.ID)
		if st.State == StateRunning {
			break
		}
		if i > 2000 {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := d.Submit(Spec{Seed: 2}); err != nil {
		t.Fatalf("second job should queue: %v", err)
	}
	if _, err := d.Submit(Spec{Seed: 3}); err != ErrQueueFull {
		t.Fatalf("third job should hit backpressure, got %v", err)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"seed":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full POST: %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q", ra)
	}
	// Bad specs are a 422, not a 429 — validation happens first.
	resp, err = http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"scale":"galactic"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad-spec POST: %d", resp.StatusCode)
	}
}

func TestDeadlineTimeoutClassification(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) {
		cfg.WorkerCommand = func(string) *exec.Cmd { return exec.Command("sleep", "60") }
	})
	defer drainDaemon(t, d)

	// No respawn budget: the timeout is terminal and visible.
	st, err := d.Submit(Spec{DeadlineMs: 150, Restarts: -1})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, d, st.ID, time.Minute)
	if fin.State != StateFailed || fin.Kind != "timeout" {
		t.Fatalf("want terminal timeout, got %s/%s: %s", fin.State, fin.Kind, fin.Error)
	}
	if !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("timeout message: %q", fin.Error)
	}
	if fin.Attempts != 1 {
		t.Fatalf("restarts=-1 but %d attempts", fin.Attempts)
	}

	// Timeouts are retryable by classification: with a respawn budget
	// the daemon tries again (each attempt gets a fresh deadline).
	st2, err := d.Submit(Spec{Seed: 2, DeadlineMs: 150, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitJob(t, d, st2.ID, time.Minute)
	if fin2.Attempts != 2 || fin2.Kind != "timeout" {
		t.Fatalf("want 2 timed-out attempts, got %d/%s", fin2.Attempts, fin2.Kind)
	}
}

// TestStaleHeartbeatKillClassification: a worker that touches its
// heartbeat file once and then wedges is killed as a timeout once the
// file's mtime is older than HeartbeatTimeout, long before its deadline.
func TestStaleHeartbeatKillClassification(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) {
		cfg.HeartbeatTimeout = 200 * time.Millisecond
		cfg.WorkerCommand = func(jobDir string) *exec.Cmd {
			return exec.Command("sh", "-c", `touch "$0/`+heartbeatFile+`"; exec sleep 60`, jobDir)
		}
	})
	defer drainDaemon(t, d)

	st, err := d.Submit(Spec{Restarts: -1})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, d, st.ID, 30*time.Second)
	if fin.State != StateFailed || fin.Kind != "timeout" || !strings.Contains(fin.Error, "heartbeat stale") {
		t.Fatalf("want failed/timeout with a stale heartbeat, got %s/%s: %s", fin.State, fin.Kind, fin.Error)
	}
}

func TestMemoryBudgetKillClassification(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) {
		cfg.WorkerCommand = func(string) *exec.Cmd { return exec.Command("sleep", "60") }
		cfg.ReadRSS = func(int) (int64, error) { return 4 << 30, nil } // 4GB, always over
	})
	defer drainDaemon(t, d)

	st, err := d.Submit(Spec{MemLimitMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, d, st.ID, time.Minute)
	if fin.State != StateFailed || fin.Kind != "resource" {
		t.Fatalf("want resource kill, got %s/%s: %s", fin.State, fin.Kind, fin.Error)
	}
	if fin.Attempts != 1 {
		t.Fatalf("resource kills are non-retryable by default, got %d attempts", fin.Attempts)
	}

	// Opt-in retry: retry_resource re-admits up to the respawn budget.
	st2, err := d.Submit(Spec{Seed: 2, MemLimitMB: 64, RetryResource: true, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitJob(t, d, st2.ID, time.Minute)
	if fin2.Attempts != 2 || fin2.Kind != "resource" {
		t.Fatalf("want 2 resource-killed attempts, got %d/%s", fin2.Attempts, fin2.Kind)
	}
}

func TestBreakerOpensAfterRepeatedFailures(t *testing.T) {
	jb := &syncBuffer{}
	d := newDaemon(t, jb, func(cfg *Config) {
		// ExitSetup: a non-retryable structured failure every time.
		cfg.WorkerCommand = func(string) *exec.Cmd { return exec.Command("sh", "-c", "exit 2") }
		cfg.BreakerThreshold = 2
	})
	defer drainDaemon(t, d)

	for i := 0; i < 2; i++ {
		st, err := d.Submit(Spec{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		fin := waitJob(t, d, st.ID, time.Minute)
		if fin.State != StateFailed || fin.Kind != "error" {
			t.Fatalf("want setup failure, got %s/%s", fin.State, fin.Kind)
		}
	}
	_, err := d.Submit(Spec{})
	if err == nil || !strings.Contains(err.Error(), "circuit breaker") {
		t.Fatalf("breaker should be open: %v", err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, herr := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{}`))
	if herr != nil {
		t.Fatal(herr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("breaker POST: %d", resp.StatusCode)
	}
	// A different workload config is unaffected.
	if _, err := d.Submit(Spec{Seed: 99}); err != nil {
		t.Fatalf("unrelated config rejected: %v", err)
	}
	var opened bool
	for _, e := range jb.entries(t) {
		if e.Event == supervisor.EventBreakerOpen {
			opened = true
		}
	}
	if !opened {
		t.Fatal("breaker_open never journaled")
	}
}

// A fuzz campaign job runs the conformance fuzzer in an isolated
// worker: the job completes with the campaign summary as its result
// and the fuzz lifecycle events land in the shared journal.
func TestFuzzJobCompletes(t *testing.T) {
	jb := &syncBuffer{}
	d := newDaemon(t, jb, nil)
	st, err := d.Submit(Spec{Fuzz: &FuzzSpec{Seqs: 6, Seed: 99, MaxUnits: 8}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, d, st.ID, 2*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("state %s, kind %s: %s", fin.State, fin.Kind, fin.Error)
	}
	if fin.Result == nil || fin.Result.Fuzz == nil {
		t.Fatalf("fuzz job has no fuzz result: %+v", fin.Result)
	}
	fr := fin.Result.Fuzz
	if fr.Seqs != 6 {
		t.Fatalf("campaign ran %d sequences, want 6", fr.Seqs)
	}
	if fr.Findings != 0 {
		t.Fatalf("clean campaign reported %d findings: %v", fr.Findings, fr.Kinds)
	}
	// The campaign trail is in the worker journal, not the daemon's.
	data, err := os.ReadFile(filepath.Join(fin.Dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	es, err := supervisor.ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var sawStart, sawDone bool
	for _, e := range es {
		switch e.Event {
		case supervisor.EventFuzzStart:
			sawStart = true
		case supervisor.EventFuzzDone:
			sawDone = true
		}
	}
	if !sawStart || !sawDone {
		t.Fatalf("worker journal missing fuzz events: start=%v done=%v", sawStart, sawDone)
	}
}

// A fuzz spec that cannot run is rejected at admission.
func TestFuzzSpecValidation(t *testing.T) {
	if err := (&Spec{Fuzz: &FuzzSpec{Seqs: -1}}).Validate(); err == nil {
		t.Fatal("negative seqs should be rejected")
	}
	if err := (&Spec{Mode: "native", Fuzz: &FuzzSpec{}}).Validate(); err == nil {
		t.Fatal("fuzz + native mode should be rejected")
	}
}
