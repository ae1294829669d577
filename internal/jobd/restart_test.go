package jobd

// End-to-end daemon crash-recovery tests. The daemon under test is a
// real subprocess (TestMain's PTLSERVE_DAEMON_DIR mode), so SIGKILL
// really does what a power cut, OOM kill, or `kill -9` does: no
// deferred cleanup runs, no channel drains — the only thing the next
// incarnation has is what the job store fsync'd.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemonMain is the subprocess entry point: a daemon plus HTTP server
// on the given data directory. The listen address lands in
// PTLSERVE_DAEMON_ADDRFILE (atomically, temp+rename); the process then
// blocks until killed.
func daemonMain(dir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	jf, err := os.OpenFile(filepath.Join(dir, "service.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	compact := 256
	if v := os.Getenv("PTLSERVE_DAEMON_COMPACT"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			compact = n
		}
	}
	tenantQueued := 0
	if v := os.Getenv("PTLSERVE_DAEMON_TQUEUED"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			tenantQueued = n
		}
	}
	workerCmd := func(jobDir string) *exec.Cmd {
		cmd := exec.Command(exe)
		cmd.Env = []string{"PTLSERVE_WORKER_DIR=" + jobDir}
		return cmd
	}
	if os.Getenv("PTLSERVE_DAEMON_SLEEPWORKER") == "1" {
		// Stub workers that never finish: the multi-tenant recovery test
		// needs a backlog that stays put while it asserts scheduling.
		workerCmd = func(string) *exec.Cmd { return exec.Command("sleep", "60") }
	}
	d, err := New(Config{
		Dir:              dir,
		WorkerCommand:    workerCmd,
		TenantMaxQueued:  tenantQueued,
		Workers:          1,
		QueueDepth:       16,
		PollInterval:     10 * time.Millisecond,
		HeartbeatTimeout: 30 * time.Second,
		Deadline:         5 * time.Minute,
		CompactEvery:     compact,
		Journal:          jf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	d.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	go http.Serve(ln, d.Handler())
	if af := os.Getenv("PTLSERVE_DAEMON_ADDRFILE"); af != "" {
		tmp := af + ".tmp"
		if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "daemon:", err)
			return 1
		}
		if err := os.Rename(tmp, af); err != nil {
			fmt.Fprintln(os.Stderr, "daemon:", err)
			return 1
		}
	}
	select {} // until SIGKILL
}

// daemonProc is a test handle on a daemon subprocess.
type daemonProc struct {
	cmd *exec.Cmd
	url string
}

// daemonGroups lists the process groups startDaemonProc created; TestMain
// checks that none outlives the tests.
var daemonGroups struct {
	sync.Mutex
	pgids []int
}

// startDaemonProc launches the daemon subprocess on dir, in a process
// group of its own that its workers inherit, and waits for its HTTP
// address. The test's cleanup kills the whole group: the daemon and
// every worker it spawned, orphaned or not.
func startDaemonProc(t *testing.T, dir string) *daemonProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	logf, err := os.OpenFile(filepath.Join(dir, "daemon.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"PTLSERVE_DAEMON_DIR="+dir,
		"PTLSERVE_DAEMON_ADDRFILE="+addrFile)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pgid := cmd.Process.Pid
	daemonGroups.Lock()
	daemonGroups.pgids = append(daemonGroups.pgids, pgid)
	daemonGroups.Unlock()
	dp := &daemonProc{cmd: cmd}
	t.Cleanup(func() {
		syscall.Kill(-pgid, syscall.SIGKILL)
		dp.kill()
	})

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon subprocess never published its address (see %s/daemon.log)", dir)
		}
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			dp.url = string(data)
			return dp
		}
		if cmd.ProcessState != nil {
			t.Fatalf("daemon subprocess exited early (see %s/daemon.log)", dir)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon alone — the crash under test — and reaps
// it; its workers live on as orphans.
func (dp *daemonProc) kill() {
	if dp.cmd.Process != nil {
		syscall.Kill(dp.cmd.Process.Pid, syscall.SIGKILL)
		dp.cmd.Wait()
	}
}

func httpSubmit(t *testing.T, url string, spec Spec, idemKey string) (Status, int) {
	t.Helper()
	body, _ := json.Marshal(&spec)
	req, err := http.NewRequest("POST", url+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func httpJob(t *testing.T, url, id string) Status {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitHTTPJob(t *testing.T, url, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := httpJob(t, url, id)
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := httpJob(t, url, id)
	t.Fatalf("job %s did not finish in %v (state %s, kind %s, err %q)",
		id, timeout, st.State, st.Kind, st.Error)
	return Status{}
}

// waitRunningWithCheckpoint waits until the job has a live worker PID
// and at least one rotation slot to resume from, and returns the status.
func waitRunningWithCheckpoint(t *testing.T, url, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := httpJob(t, url, id)
		if st.State == StateDone || st.State == StateFailed {
			t.Fatalf("job %s finished (%s) before the crash landed — widen the workload", id, st.State)
		}
		if st.PID > 0 {
			slots, _ := filepath.Glob(filepath.Join(st.Dir, ckptSubdir, "*.ckpt"))
			if len(slots) > 0 {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached running-with-checkpoint", id)
	return Status{}
}

// TestDaemonSIGKILLRecoveryMixedStates is the tentpole acceptance test:
// SIGKILL the daemon with jobs in mixed states — one done, one running
// (whose worker is then killed too, forcing the respawn path), two
// queued — restart it on the same data directory, and every job must
// reach a terminal state with guest output bit-identical to an
// uncrashed run. Idempotent resubmission across the crash returns the
// original job, and nothing is lost or duplicated.
func TestDaemonSIGKILLRecoveryMixedStates(t *testing.T) {
	spec := killSpec()

	// Reference: the same workload on an unkilled in-process daemon.
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

	dir := t.TempDir()
	dp := startDaemonProc(t, dir)

	// One job all the way to done before the crash.
	doneJob, code := httpSubmit(t, dp.url, smallSpec(), "job-done")
	if code != http.StatusAccepted {
		t.Fatalf("submit done-job: %d", code)
	}
	doneSt := waitHTTPJob(t, dp.url, doneJob.ID, 2*time.Minute)
	if doneSt.State != StateDone {
		t.Fatalf("pre-crash job failed: %s %s", doneSt.Kind, doneSt.Error)
	}
	preCrashFNV := doneSt.Result.ConsoleFNV

	// One running (the crash victim) and two queued behind it.
	victim, code := httpSubmit(t, dp.url, spec, "job-victim")
	if code != http.StatusAccepted {
		t.Fatalf("submit victim: %d", code)
	}
	queuedA, _ := httpSubmit(t, dp.url, spec, "job-queued-a")
	queuedB, _ := httpSubmit(t, dp.url, spec, "job-queued-b")

	vst := waitRunningWithCheckpoint(t, dp.url, victim.ID, 2*time.Minute)
	workerPID := vst.PID

	// The crash: SIGKILL the daemon, then SIGKILL its orphan worker too,
	// so recovery must take the reap-and-respawn path (adoption has its
	// own test).
	dp.kill()
	syscall.Kill(workerPID, syscall.SIGKILL)

	dp2 := startDaemonProc(t, dir)

	// Idempotent resubmit across the crash: same key, original job back,
	// 200 not 202, and no fourth copy of the workload admitted.
	rest, code := httpSubmit(t, dp2.url, spec, "job-queued-a")
	if code != http.StatusOK {
		t.Fatalf("idempotent resubmit: %d, want 200", code)
	}
	if rest.ID != queuedA.ID {
		t.Fatalf("idempotent resubmit returned job %s, original was %s", rest.ID, queuedA.ID)
	}

	// Every job reaches a terminal state with bit-identical output.
	for _, id := range []string{victim.ID, queuedA.ID, queuedB.ID} {
		fin := waitHTTPJob(t, dp2.url, id, 4*time.Minute)
		if fin.State != StateDone {
			t.Fatalf("job %s did not recover: %s %s: %s", id, fin.State, fin.Kind, fin.Error)
		}
		if fin.Result.Console != clean.Console {
			t.Fatalf("job %s console differs after crash recovery:\nclean:\n%s\ngot:\n%s",
				id, clean.Console, fin.Result.Console)
		}
		if fin.Result.ConsoleFNV != clean.ConsoleFNV ||
			fin.Result.Cycles != clean.Cycles || fin.Result.Insns != clean.Insns {
			t.Fatalf("job %s not bit-identical: cycles %d vs %d, insns %d vs %d",
				id, fin.Result.Cycles, clean.Cycles, fin.Result.Insns, clean.Insns)
		}
	}

	// The pre-crash done job was preserved, not re-run.
	doneAfter := httpJob(t, dp2.url, doneJob.ID)
	if doneAfter.State != StateDone || doneAfter.Result == nil ||
		doneAfter.Result.ConsoleFNV != preCrashFNV {
		t.Fatalf("pre-crash done job mangled by recovery: %+v", doneAfter)
	}

	// Nothing lost, nothing duplicated.
	resp, err := http.Get(dp2.url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []Status
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("job count after crash recovery: %d, want 4", len(all))
	}
}

// TestDaemonRestartAdoptsLiveOrphan: SIGKILL the daemon while its
// worker survives. The restarted daemon must adopt the orphan — the
// same worker process finishes the job, with no respawn.
func TestDaemonRestartAdoptsLiveOrphan(t *testing.T) {
	// A longer workload than killSpec so the worker comfortably outlives
	// the daemon restart gap.
	spec := Spec{Scale: "bench", NFiles: 4, FileSize: 8192, Seed: 13, Change: 0.5,
		Timer: 4_000_000_000, MaxCycles: -1, CheckpointCycles: 25_000}

	dir := t.TempDir()
	dp := startDaemonProc(t, dir)
	st, code := httpSubmit(t, dp.url, spec, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	run := waitRunningWithCheckpoint(t, dp.url, st.ID, 2*time.Minute)
	workerPID := run.PID

	dp.kill()
	// The worker is now an orphan — and must still be alive.
	if err := syscall.Kill(workerPID, 0); err != nil {
		t.Fatalf("worker %d died with the daemon: %v", workerPID, err)
	}

	dp2 := startDaemonProc(t, dir)

	// While the job runs under the new daemon, its PID must stay the
	// orphan's — a respawn (new pid) means adoption failed.
	deadline := time.Now().Add(4 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("adopted job never finished")
		}
		cur := httpJob(t, dp2.url, st.ID)
		if cur.State == StateDone || cur.State == StateFailed {
			break
		}
		if cur.PID > 0 && cur.PID != workerPID {
			t.Fatalf("job respawned with pid %d instead of adopting %d", cur.PID, workerPID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	fin := httpJob(t, dp2.url, st.ID)
	if fin.State != StateDone {
		t.Fatalf("adopted job failed: %s %s: %s", fin.State, fin.Kind, fin.Error)
	}
	if !fin.Adopted {
		t.Fatal("job finished without the adoption marker — the worker was respawned")
	}
	if fin.Attempts != 1 {
		t.Fatalf("adoption must not burn an attempt: %d attempts", fin.Attempts)
	}
	if !strings.Contains(fin.Result.Console, "rsync ok") {
		t.Fatalf("adopted run missing success marker:\n%s", fin.Result.Console)
	}
}

// TestStalePidReapedNeverSignalled covers the pid-reuse guard: the
// store records a running worker whose pid is now owned by an unrelated
// process (this test process, with a fabricated start time). Recovery
// must NOT signal the pid — killing an innocent process — and must
// respawn the job from scratch.
func TestStalePidReapedNeverSignalled(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	if _, err := s.Append(Record{Op: opAccept, Job: "0001", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	// Our own pid with a wrong start time: the classic pid-reuse shape.
	// If the daemon signals it, this test process dies — the strongest
	// possible assertion that it must not.
	if _, err := s.Append(Record{Op: opStart, Job: "0001", Attempt: 1,
		PID: os.Getpid(), PIDStart: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	d, err := New(Config{
		Dir:              dir,
		WorkerCommand:    selfWorker(t),
		Workers:          1,
		PollInterval:     10 * time.Millisecond,
		HeartbeatTimeout: 30 * time.Second,
		Deadline:         5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := d.Recovery(); rec.Resumed != 1 {
		t.Fatalf("recovery: %+v, want 1 resumed", rec)
	}
	d.Start()

	fin := waitJob(t, d, "0001", 2*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("reaped job did not finish: %s %s: %s", fin.State, fin.Kind, fin.Error)
	}
	if fin.Adopted {
		t.Fatal("a reused pid was adopted — the start-time guard failed")
	}
	if !strings.Contains(fin.Result.Console, "rsync ok") {
		t.Fatalf("respawned run missing success marker:\n%s", fin.Result.Console)
	}
	if n := d.Counters()["jobd.jobs.reaped"]; n != 1 {
		t.Fatalf("jobd.jobs.reaped = %d, want 1", n)
	}
}

// TestIdempotencyAcrossRestartInProcess: the idempotency mapping is
// durable — a key accepted by one daemon incarnation dedupes in the
// next, even for a job that already finished.
func TestIdempotencyAcrossRestartInProcess(t *testing.T) {
	dir := t.TempDir()
	mkDaemon := func() *Daemon {
		d, err := New(Config{
			Dir:              dir,
			WorkerCommand:    selfWorker(t),
			Workers:          1,
			PollInterval:     10 * time.Millisecond,
			HeartbeatTimeout: 30 * time.Second,
			Deadline:         5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		return d
	}
	d1 := mkDaemon()
	st, dup, err := d1.SubmitKey(smallSpec(), "the-key")
	if err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	fin := waitJob(t, d1, st.ID, 2*time.Minute)
	if fin.State != StateDone {
		t.Fatalf("job failed: %s", fin.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	d1.Drain(ctx)
	cancel()

	d2 := mkDaemon()
	st2, dup, err := d2.SubmitKey(smallSpec(), "the-key")
	if err != nil || !dup {
		t.Fatalf("resubmit after restart: dup=%v err=%v", dup, err)
	}
	if st2.ID != st.ID || st2.State != StateDone {
		t.Fatalf("resubmit returned %s/%s, want original %s done", st2.ID, st2.State, st.ID)
	}
	if st2.Result == nil || st2.Result.ConsoleFNV != fin.Result.ConsoleFNV {
		t.Fatal("recovered duplicate lost the original result")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	d2.Drain(ctx2)
	cancel2()
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id   int64
	op   string
	data Record
}

// readSSE consumes an event stream until it closes.
func readSSE(t *testing.T, r *http.Response) []sseEvent {
	t.Helper()
	defer r.Body.Close()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.op != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.ParseInt(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.op = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	return out
}

// TestEventsStreamReplaysAcrossRestart: /jobs/{id}/events streams the
// job's WAL records live, and — because the stream is replayed from the
// durable store — a client reconnecting after a daemon restart with
// Last-Event-ID resumes without losing records.
func TestEventsStreamReplaysAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	mkDaemon := func() *Daemon {
		d, err := New(Config{
			Dir:              dir,
			WorkerCommand:    selfWorker(t),
			Workers:          1,
			PollInterval:     10 * time.Millisecond,
			HeartbeatTimeout: 30 * time.Second,
			Deadline:         5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		return d
	}
	d1 := mkDaemon()
	srv := httptest.NewServer(d1.Handler())
	defer srv.Close()

	if resp, err := http.Get(srv.URL + "/jobs/9999/events"); err != nil ||
		resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job: %v %v", resp.StatusCode, err)
	}

	st, err := d1.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Live stream: subscribe while the job runs, read until the terminal
	// record closes the stream.
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	events := readSSE(t, resp)
	if len(events) < 3 {
		t.Fatalf("stream too short: %+v", events)
	}
	ops := map[string]bool{}
	var lastSeq int64
	for _, ev := range events {
		ops[ev.op] = true
		if ev.id <= lastSeq {
			t.Fatalf("event ids not increasing: %d after %d", ev.id, lastSeq)
		}
		lastSeq = ev.id
	}
	for _, want := range []string{"accept", "start", "done"} {
		if !ops[want] {
			t.Fatalf("stream missing %q record: %v", want, ops)
		}
	}
	final := events[len(events)-1]
	if final.op != "done" || final.data.Result == nil {
		t.Fatalf("stream did not end at the terminal record: %+v", final)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	d1.Drain(ctx)
	cancel()

	// Restart: a client that saw everything but the terminal record
	// reconnects with Last-Event-ID and gets exactly the rest.
	d2 := mkDaemon()
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	req, _ := http.NewRequest("GET", srv2.URL+"/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(events[len(events)-2].id, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, resp2)
	if len(replay) != 1 || replay[0].op != "done" || replay[0].id != final.id {
		t.Fatalf("reconnect replay wrong: %+v", replay)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	d2.Drain(ctx2)
	cancel2()
}

// TestDaemonSIGKILLRecoveryMultiTenantBacklog is the multi-tenant
// acceptance test: SIGKILL the daemon with a mixed-priority backlog
// from two tenants, restart it, and the replayed admission queue must
// restore both the intended dequeue order (priority within tenant) and
// the per-tenant quota accounting — a tenant at its queued quota before
// the crash is still rejected after it. Stub sleep-workers keep the
// backlog pinned so every assertion is race-free.
func TestDaemonSIGKILLRecoveryMultiTenantBacklog(t *testing.T) {
	t.Setenv("PTLSERVE_DAEMON_TQUEUED", "2")
	t.Setenv("PTLSERVE_DAEMON_SLEEPWORKER", "1")
	dir := t.TempDir()
	dp := startDaemonProc(t, dir)

	// The blocker occupies the single worker slot; everything behind it
	// stays queued.
	blocker := Spec{Tenant: "alpha", Seed: 100}
	bst, code := httpSubmit(t, dp.url, blocker, "job-blocker")
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	var workerPID int
	for {
		st := httpJob(t, dp.url, bst.ID)
		if st.State == StateRunning && st.PID > 0 {
			workerPID = st.PID
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Mixed-priority backlog: two queued per tenant (each tenant exactly
	// at its quota of 2), priorities deliberately admitted low-first.
	a1, _ := httpSubmit(t, dp.url, Spec{Tenant: "alpha", Priority: 1, Seed: 101}, "job-a1")
	a5, _ := httpSubmit(t, dp.url, Spec{Tenant: "alpha", Priority: 5, Seed: 102}, "job-a5")
	b2, _ := httpSubmit(t, dp.url, Spec{Tenant: "beta", Priority: 2, Seed: 201}, "job-b2")
	b9, _ := httpSubmit(t, dp.url, Spec{Tenant: "beta", Priority: 9, Seed: 202}, "job-b9")
	// Quota is live pre-crash.
	if _, code := httpSubmit(t, dp.url, Spec{Tenant: "alpha", Seed: 103}, "job-a-over"); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota pre-crash submit: %d, want 429", code)
	}

	dp.kill()
	syscall.Kill(workerPID, syscall.SIGKILL)

	dp2 := startDaemonProc(t, dir)

	// The single pool worker pops exactly one backlog job. Stride
	// scheduling breaks the fresh-start tie to tenant alpha, and the
	// replayed heap must hand out alpha's priority-5 job — not the
	// priority-1 job admitted before it.
	deadline = time.Now().Add(30 * time.Second)
	for {
		st := httpJob(t, dp2.url, a5.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a5 not dispatched after restart (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := httpJob(t, dp2.url, a1.ID); st.State != StateQueued {
		t.Fatalf("priority inversion after replay: a1 is %s, a5 should run first", st.State)
	}
	for _, id := range []string{b2.ID, b9.ID} {
		if st := httpJob(t, dp2.url, id); st.State != StateQueued {
			t.Fatalf("beta job %s is %s, want queued behind the single worker", id, st.State)
		}
	}
	// The blocker was re-staged as running (adopt-or-respawn), not
	// requeued — its tenant's running slot survived the crash.
	if st := httpJob(t, dp2.url, bst.ID); st.State != StateRunning {
		t.Fatalf("blocker is %s after restart, want running", st.State)
	}

	// Per-tenant quota accounting replayed: beta still holds 2 queued →
	// at quota; alpha drained one (a5 popped) → one slot free, then full
	// again.
	if _, code := httpSubmit(t, dp2.url, Spec{Tenant: "beta", Seed: 203}, "job-b-over"); code != http.StatusTooManyRequests {
		t.Fatalf("beta over-quota submit after restart: %d, want 429", code)
	}
	if _, code := httpSubmit(t, dp2.url, Spec{Tenant: "alpha", Seed: 104}, "job-a-refill"); code != http.StatusAccepted {
		t.Fatalf("alpha refill submit after restart: %d, want 202", code)
	}
	if _, code := httpSubmit(t, dp2.url, Spec{Tenant: "alpha", Seed: 105}, "job-a-over2"); code != http.StatusTooManyRequests {
		t.Fatalf("alpha second over-quota submit: %d, want 429", code)
	}

	// Idempotent replay across the crash: original job back, no dup.
	re, code := httpSubmit(t, dp2.url, Spec{Tenant: "alpha", Priority: 1, Seed: 101}, "job-a1")
	if code != http.StatusOK || re.ID != a1.ID {
		t.Fatalf("idempotent resubmit: %d job %s, want 200 job %s", code, re.ID, a1.ID)
	}

	// Nothing lost, nothing duplicated: blocker + 4 backlog + 1 refill.
	resp, err := http.Get(dp2.url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []Status
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("job count after crash recovery: %d, want 6", len(all))
	}
}

// TestRetryAfterReflectsDrainRate: once job latency is measured, the
// 429 Retry-After header is computed from the queue drain rate instead
// of the configured constant.
func TestRetryAfterReflectsDrainRate(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) {
		cfg.WorkerCommand = func(string) *exec.Cmd { return exec.Command("sleep", "60") }
		cfg.QueueDepth = 1
	})
	defer drainDaemon(t, d)

	// No samples yet: the configured constant.
	if got := d.RetryAfter(); got != 2*time.Second {
		t.Fatalf("unmeasured RetryAfter = %v, want 2s", got)
	}

	// Measured: p50 of 3s, one queued job, one worker → two drain
	// cycles → 6s.
	for i := 0; i < 3; i++ {
		d.noteLatency(3000)
	}
	first, err := d.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
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
	if got := d.RetryAfter(); got != 6*time.Second {
		t.Fatalf("measured RetryAfter = %v, want 6s", got)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full POST: %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "6" {
		t.Fatalf("Retry-After = %q, want 6", ra)
	}
	if got := d.Counters()["jobd.retry_after_ms"]; got != 6000 {
		t.Fatalf("jobd.retry_after_ms = %d", got)
	}

	// The estimate is clamped: absurd p50s do not produce absurd hints.
	for i := 0; i < 256; i++ {
		d.noteLatency(100 * 60 * 1000)
	}
	if got := d.RetryAfter(); got != 5*time.Minute {
		t.Fatalf("clamped RetryAfter = %v, want 5m", got)
	}
}
