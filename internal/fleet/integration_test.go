package fleet

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"ptlsim/internal/fleet/chaosnet"
	"ptlsim/internal/jobd"
	"ptlsim/internal/supervisor"
)

// TestMain doubles as the worker entry point, same trick as the jobd
// tests: the real daemons spun up here re-exec this test binary with
// PTLSERVE_WORKER_DIR set, so integration tests run genuine worker
// subprocesses executing the genuine simulator workload.
func TestMain(m *testing.M) {
	if dir := os.Getenv("PTLSERVE_WORKER_DIR"); dir != "" {
		os.Exit(jobd.WorkerMain(dir, os.Stderr))
	}
	os.Exit(m.Run())
}

// realDaemon starts an in-process jobd.Daemon with re-exec'd workers
// and serves its HTTP API from an httptest server.
func realDaemon(t *testing.T) (*jobd.Daemon, *httptest.Server) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d, err := jobd.New(jobd.Config{
		Dir: t.TempDir(),
		WorkerCommand: func(jobDir string) *exec.Cmd {
			cmd := exec.Command(exe)
			cmd.Env = []string{"PTLSERVE_WORKER_DIR=" + jobDir}
			return cmd
		},
		Workers:      2,
		QueueDepth:   16,
		PollInterval: 10 * time.Millisecond,
		Deadline:     2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Drain(ctx)
	})
	return d, srv
}

// lockedBuffer is an io.Writer safe to read while the dispatcher is
// still appending journal entries from its tick goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) snapshot() *bytes.Buffer {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.NewBuffer(append([]byte(nil), l.b.Bytes()...))
}

// TestIntegrationRealDaemons: a small campaign across two genuine
// ptlserve daemons — real workers, real simulator, real console FNVs —
// completes with one verdict per cell and bit-identical replicas.
func TestIntegrationRealDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("real-daemon integration test")
	}
	_, s1 := realDaemon(t)
	_, s2 := realDaemon(t)

	var buf lockedBuffer
	d, err := NewDispatcher(Config{
		Nodes:        []Node{{Name: "n1", URL: s1.URL}, {Name: "n2", URL: s2.URL}},
		LeaseTTL:     10 * time.Second,
		PollInterval: 100 * time.Millisecond,
		Inflight:     2,
		Journal:      supervisor.NewJournal(&buf),
		Submit:       NewClient(ClientConfig{Timeout: 2 * time.Second, Retries: 1, BaseBackoff: 50 * time.Millisecond}),
		Poll:         NewClient(ClientConfig{Timeout: 2 * time.Second, Retries: -1}),
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	camp := &Campaign{
		Name: "integ",
		Base: jobd.Spec{Scale: "bench", NFiles: 1, FileSize: 1024, Change: 0.4,
			Timer: 4_000_000_000, MaxCycles: -1, CheckpointCycles: 50_000},
		Seeds:   []int64{5, 6},
		Repeats: 2,
	}
	rep, err := d.Run(t.Context(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 4 || rep.Failed != 0 || len(rep.Mismatches) != 0 {
		t.Fatalf("report %+v", rep)
	}
	vs := verdictsPerCell(t, rep)
	for cell, v := range vs {
		if v.ConsoleFNV == 0 {
			t.Fatalf("cell %s: zero console FNV from a real run", cell)
		}
	}
	// Replicas (same seed, different cells, possibly different daemons)
	// must agree bit-for-bit — this is the real engine, not a fake.
	byKey := map[uint64]map[uint64]bool{}
	for _, v := range vs {
		if byKey[v.ConfigKey] == nil {
			byKey[v.ConfigKey] = map[uint64]bool{}
		}
		byKey[v.ConfigKey][v.ConsoleFNV] = true
	}
	if len(byKey) != 2 {
		t.Fatalf("%d config keys, want 2", len(byKey))
	}
	for key, fnvs := range byKey {
		if len(fnvs) != 1 {
			t.Fatalf("config %016x: replicas disagree: %v", key, fnvs)
		}
	}
}

// TestIntegrationPartitionSteal: three real daemons, one behind a
// chaosnet proxy. Mid-campaign the proxy partitions (blackhole, not
// polite refusal) for longer than the lease TTL: the dispatcher must
// mark the node down, steal its leased cells to survivors, and finish
// the sweep with zero lost cells and zero duplicate verdicts.
func TestIntegrationPartitionSteal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-daemon integration test")
	}
	_, s1 := realDaemon(t)
	_, s2 := realDaemon(t)
	_, s3 := realDaemon(t)

	proxy, err := chaosnet.New("127.0.0.1:0", strings.TrimPrefix(s3.URL, "http://"), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var buf lockedBuffer
	d, err := NewDispatcher(Config{
		Nodes: []Node{
			{Name: "n1", URL: s1.URL},
			{Name: "n2", URL: s2.URL},
			{Name: "n3", URL: "http://" + proxy.Addr()},
		},
		// Longer than DownAfter health+poll rounds at the Poll timeout
		// (≈2.2 s when the cable is pulled between a tick's health check
		// and its polls): n3 must be marked down before its leases
		// expire, or the stolen cell is re-leased to n3 itself and the
		// blocked submit outlasts the partition.
		LeaseTTL:     3 * time.Second,
		PollInterval: 100 * time.Millisecond,
		DownAfter:    2,
		Inflight:     2,
		Journal:      supervisor.NewJournal(&buf),
		Submit:       NewClient(ClientConfig{Timeout: time.Second, Retries: 1, BaseBackoff: 50 * time.Millisecond}),
		Poll:         NewClient(ClientConfig{Timeout: 500 * time.Millisecond, Retries: -1}),
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Real simulation jobs run several seconds of wall clock here, so
	// n3's leases are still in flight when the partition lands.
	camp := &Campaign{
		Name: "chaos",
		Base: jobd.Spec{Scale: "bench", NFiles: 1, FileSize: 1024, Change: 0.5,
			Timer: 4_000_000_000, MaxCycles: -1, CheckpointCycles: 50_000},
		Seeds:   []int64{1, 2, 3},
		Repeats: 2,
	}

	type runResult struct {
		rep *Report
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		rep, err := d.Run(t.Context(), camp)
		done <- runResult{rep, err}
	}()

	// Let the first assignment pass hand n3 its cells, then pull the
	// cable for two lease TTLs.
	time.Sleep(400 * time.Millisecond)
	proxy.SetFaults(chaosnet.Faults{Partition: true})
	time.Sleep(6 * time.Second)
	proxy.SetFaults(chaosnet.Faults{})

	var res runResult
	select {
	case res = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign did not finish after partition healed")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	rep := res.rep
	if rep.Done != 6 || rep.Failed != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Steals == 0 {
		t.Fatal("partition outlasted the lease TTL but nothing was stolen")
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("replica FNV mismatches: %v", rep.Mismatches)
	}
	verdictsPerCell(t, rep) // fails on any duplicate verdict

	ev := journalEvents(t, buf.snapshot())
	if ev["node_down"] == 0 {
		t.Fatalf("journal events %v: partitioned node never marked down", ev)
	}
	if ev["lease_steal"] != rep.Steals {
		t.Fatalf("journal steals %d != report %d", ev["lease_steal"], rep.Steals)
	}
	if st := proxy.Stats(); st.Stalled == 0 {
		t.Fatalf("proxy stats %+v: partition never actually stalled traffic", st)
	}
}
