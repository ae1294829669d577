package jobd

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
)

// TestWorkerMatchesDirectRun: the worker boots its guest through the
// same experiments.Scale/Boot the CLI and the benchmark use, so a job
// spec and a direct run of the same scale must agree on everything the
// determinism contract covers. A second copy of the scale table or the
// boot sequence would drift here first.
func TestWorkerMatchesDirectRun(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, specFile),
		[]byte(`{"scale":"small","mode":"native"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if code := WorkerMain(dir, &log); code != 0 {
		t.Fatalf("worker exited %d:\n%s", code, log.String())
	}
	res, err := readJSON[Result](filepath.Join(dir, resultFile))
	if err != nil {
		t.Fatal(err)
	}

	cfg := experiments.Scale("small")
	m, err := experiments.Boot(cfg, core.Config{Core: experiments.CoreConfig("k8"),
		NativeCPI: 1, ThreadsPerCore: 1, SnapshotCycles: cfg.SnapshotCycles}, core.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(cfg.MaxCycles); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Dom.Console(), "rsync ok") {
		t.Fatalf("direct run failed: %q", m.Dom.Console())
	}
	if res.Cycles != m.Cycle || res.Insns != m.Insns() || res.ConsoleFNV != consoleFNV(m.Dom.Console()) {
		t.Fatalf("worker (cycles %d, insns %d, console %#x) != direct run (cycles %d, insns %d, console %#x)",
			res.Cycles, res.Insns, res.ConsoleFNV, m.Cycle, m.Insns(), consoleFNV(m.Dom.Console()))
	}
}

// TestAdoptedOrphanDeadlineKill: an orphan adopted after a daemon
// restart is still bound by the job's wall-clock deadline, measured
// from the recorded attempt start. The monitor cannot waitpid a process
// it did not spawn, so this is the path where the kill, the liveness
// poll noticing the death, and the timeout classification all run on
// the adopted side of the shared loop.
func TestAdoptedOrphanDeadlineKill(t *testing.T) {
	orphanCmd := exec.Command("sleep", "60")
	if err := orphanCmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Reap it the moment it dies, as init would a real orphan: a zombie
	// keeps its /proc entry and would look alive to the liveness poll.
	reaped := make(chan error, 1)
	go func() { reaped <- orphanCmd.Wait() }()
	defer orphanCmd.Process.Kill()
	pid := orphanCmd.Process.Pid
	pidStart, err := procStartTime(pid)
	if err != nil {
		t.Skipf("no procfs start time: %v", err)
	}

	dir := t.TempDir()
	s, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Restarts -1 leaves exactly the one respawn a recovered job is
	// granted per daemon incarnation.
	spec := Spec{DeadlineMs: 150, Restarts: -1}
	if _, err := s.Append(Record{Op: opAccept, Job: "0001", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Record{Op: opStart, Job: "0001", Attempt: 1,
		PID: pid, PIDStart: pidStart}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	d, err := New(Config{
		Dir:              dir,
		WorkerCommand:    func(string) *exec.Cmd { return exec.Command("sleep", "60") },
		Workers:          1,
		PollInterval:     10 * time.Millisecond,
		HeartbeatTimeout: 30 * time.Second,
		Deadline:         5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer drainDaemon(t, d)

	select {
	case err := <-reaped:
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("orphan ended with %v, want SIGKILL from the monitor", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("adopted orphan outlived its deadline")
	}
	fin := waitJob(t, d, "0001", time.Minute)
	if !fin.Adopted || fin.State != StateFailed || fin.Kind != "timeout" || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("want an adopted job failed by its deadline, got adopted=%v %s/%s: %s",
			fin.Adopted, fin.State, fin.Kind, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("%d attempts, want the adopted one plus its one respawn", fin.Attempts)
	}
	if n := d.Counters()["jobd.workers.exit.timeout"]; n != 2 {
		t.Fatalf("jobd.workers.exit.timeout = %d, want 2", n)
	}
}
