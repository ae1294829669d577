package jobd

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func mkJob(tenant string, pri int) *job {
	return &job{spec: Spec{Tenant: tenant, Priority: pri}}
}

// TestAdmitQueuePriorityOrder: within one tenant, higher priority pops
// first; equal priorities stay FIFO in admission order.
func TestAdmitQueuePriorityOrder(t *testing.T) {
	q := newAdmitQueue(TenantPolicy{}, nil, nil)
	first5 := mkJob("", 5)
	second5 := mkJob("", 5)
	for _, j := range []*job{mkJob("", 1), first5, mkJob("", 3), second5} {
		q.push(j)
	}
	wantPri := []int{5, 5, 3, 1}
	var got []*job
	for range wantPri {
		j, ok := q.pop()
		if !ok {
			t.Fatal("pop returned closed on a non-empty queue")
		}
		got = append(got, j)
	}
	for i, j := range got {
		if j.spec.Priority != wantPri[i] {
			t.Fatalf("pop %d: priority %d, want %d", i, j.spec.Priority, wantPri[i])
		}
	}
	if got[0] != first5 || got[1] != second5 {
		t.Fatal("equal priorities did not pop in admission order")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestAdmitQueueWeightedFairness: stride scheduling splits dequeues by
// weight under contention — a weight-3 tenant gets 3 of every 4 slots
// against a weight-1 tenant, regardless of job priorities.
func TestAdmitQueueWeightedFairness(t *testing.T) {
	q := newAdmitQueue(TenantPolicy{}, map[string]TenantPolicy{
		"greedy": {Weight: 3},
	}, nil)
	for i := 0; i < 8; i++ {
		// The greedy tenant even marks everything max priority — priority
		// must not buy cross-tenant share.
		q.push(mkJob("greedy", 9))
		q.push(mkJob("meek", 0))
	}
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("unexpected close")
		}
		counts[j.spec.Tenant]++
	}
	if counts["greedy"] != 6 || counts["meek"] != 2 {
		t.Fatalf("8 pops split %v, want greedy:6 meek:2", counts)
	}
}

// TestAdmitQueueRunningCap: a tenant at its MaxRunning quota is
// ineligible — pop blocks rather than handing out its jobs, and a
// done() releasing the slot unblocks it.
func TestAdmitQueueRunningCap(t *testing.T) {
	q := newAdmitQueue(TenantPolicy{}, map[string]TenantPolicy{
		"capped": {MaxRunning: 1},
	}, nil)
	q.push(mkJob("capped", 0))
	q.push(mkJob("capped", 0))
	if _, ok := q.pop(); !ok {
		t.Fatal("first pop failed")
	}

	popped := make(chan *job, 1)
	go func() {
		j, _ := q.pop()
		popped <- j
	}()
	select {
	case <-popped:
		t.Fatal("pop handed out a job past the tenant's running cap")
	case <-time.After(50 * time.Millisecond):
	}
	q.done("capped")
	select {
	case j := <-popped:
		if j == nil {
			t.Fatal("pop returned closed, want a job")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop still blocked after done() released the slot")
	}

	// Close with an empty queue: poppers get a clean false.
	q.done("capped")
	q.close()
	if j, ok := q.pop(); ok {
		t.Fatalf("pop after close+drain returned job %+v", j)
	}
}

// TestTenantQuotaBackpressure: per-tenant queued quotas reject at
// admission with a tenant-scoped 429, without touching other tenants
// or the global queue.
func TestTenantQuotaBackpressure(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) {
		cfg.WorkerCommand = func(string) *exec.Cmd { return exec.Command("sleep", "60") }
		cfg.TenantMaxQueued = 1
	})
	defer drainDaemon(t, d)

	first, err := d.Submit(Spec{Tenant: "alpha"})
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
	if _, err := d.Submit(Spec{Tenant: "alpha", Seed: 2}); err != nil {
		t.Fatalf("second alpha job should queue: %v", err)
	}
	if _, err := d.Submit(Spec{Tenant: "alpha", Seed: 3}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third alpha job: %v, want ErrTenantQuota", err)
	}
	// Another tenant is untouched by alpha's quota.
	if _, err := d.Submit(Spec{Tenant: "beta", Seed: 4}); err != nil {
		t.Fatalf("beta job should queue: %v", err)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"tenant":"alpha","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 missing Retry-After")
	}
	if n := d.Counters()["jobd.rejected.tenant_quota"]; n != 2 {
		t.Fatalf("jobd.rejected.tenant_quota = %d, want 2", n)
	}
	if q, r := d.queue.tenantLoad("alpha"); q != 1 || r != 1 {
		t.Fatalf("alpha load queued=%d running=%d, want 1/1", q, r)
	}
}

// TestDeadlineShedAtAdmission: a job whose client deadline is shorter
// than the estimated queue wait is rejected at admission — and the
// estimate fails open while the latency ring is cold.
func TestDeadlineShedAtAdmission(t *testing.T) {
	d := newDaemon(t, nil, func(cfg *Config) {
		cfg.WorkerCommand = func(string) *exec.Cmd { return exec.Command("sleep", "60") }
	})
	defer drainDaemon(t, d)

	// Cold ring: no wait estimate, an aggressive deadline is admitted.
	first, err := d.Submit(Spec{ClientDeadlineMs: 1})
	if err != nil {
		t.Fatalf("cold-ring submit should fail open: %v", err)
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
		t.Fatal(err)
	}

	// Measured p50 3s, one queued job, one worker → estimated wait 6s.
	for i := 0; i < 3; i++ {
		d.noteLatency(3000)
	}
	if _, err := d.Submit(Spec{Seed: 3, ClientDeadlineMs: 1000}); !errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("1s-deadline submit: %v, want ErrDeadlineShed", err)
	}
	if _, err := d.Submit(Spec{Seed: 4, ClientDeadlineMs: 60_000}); err != nil {
		t.Fatalf("60s-deadline submit should pass: %v", err)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"seed":5,"client_deadline_ms":500}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 missing Retry-After")
	}
	if n := d.Counters()["jobd.jobs.shed"]; n != 2 {
		t.Fatalf("jobd.jobs.shed = %d, want 2", n)
	}
}

// TestRetryAfterWarmAfterRestart: the completed-job latency ring is
// re-seeded from the store on recovery, so the first 429 after a
// restart carries the measured drain rate, not the configured
// cold-start constant.
func TestRetryAfterWarmAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three completed jobs, 4s submit→finish each, at controlled times.
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := base
	s.now = func() time.Time { return clock }
	for i := 0; i < 3; i++ {
		id := []string{"0001", "0002", "0003"}[i]
		spec := Spec{Seed: int64(i + 1)}
		clock = base.Add(time.Duration(i) * 10 * time.Second)
		if _, err := s.Append(Record{Op: opAccept, Job: id, Spec: &spec}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(Record{Op: opStart, Job: id, Attempt: 1, PID: 1, PIDStart: 1}); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(4 * time.Second)
		if _, err := s.Append(Record{Op: opDone, Job: id, Result: &Result{}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	d, err := New(Config{
		Dir:              dir,
		WorkerCommand:    func(string) *exec.Cmd { return exec.Command("sleep", "60") },
		Workers:          1,
		QueueDepth:       8,
		PollInterval:     10 * time.Millisecond,
		HeartbeatTimeout: 30 * time.Second,
		Deadline:         5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer drainDaemon(t, d)

	if rec := d.Recovery(); rec.Terminal != 3 {
		t.Fatalf("recovery %+v, want 3 terminal", rec)
	}
	// Warm ring: p50 4s, empty queue, one worker → one drain cycle.
	// The cold-ring constant (2s) must NOT surface.
	if got := d.RetryAfter(); got != 4*time.Second {
		t.Fatalf("post-recovery RetryAfter = %v, want 4s (seeded ring)", got)
	}
	// The wait estimate is warm too, so deadline shedding works from
	// the first post-restart submission.
	if est := d.estimatedWaitMs(); est != 4000 {
		t.Fatalf("post-recovery estimatedWaitMs = %d, want 4000", est)
	}
}
