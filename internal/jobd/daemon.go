package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"ptlsim/internal/metrics"
	"ptlsim/internal/simerr"
	"ptlsim/internal/supervisor"
)

// Config configures a Daemon.
type Config struct {
	// Dir is the service data directory; each job lives in
	// Dir/jobs/<id>/ and the durable job store in Dir/store.jsonl +
	// Dir/store-snap.json (required).
	Dir string
	// WorkerCommand builds the worker subprocess for a job directory —
	// cmd/ptlserve re-execs itself in the hidden worker mode; tests
	// re-exec the test binary. Required.
	WorkerCommand func(jobDir string) *exec.Cmd

	// QueueDepth bounds the number of admitted-but-not-finished jobs
	// beyond the running ones (default 8). Workers is the number of
	// concurrent worker subprocesses (default 2).
	QueueDepth int
	Workers    int

	// Deadline is the default per-attempt wall-clock budget (default
	// 10m); jobs override with DeadlineMs. HeartbeatTimeout kills a
	// worker whose heartbeat file goes stale — wedged beyond even the
	// in-process watchdog (default 1m; 0 disables). PollInterval is
	// the monitor cadence (default 200ms).
	Deadline         time.Duration
	HeartbeatTimeout time.Duration
	PollInterval     time.Duration

	// MemLimitMB is the default per-worker memory budget: exported as
	// GOMEMLIMIT (soft, in-runtime) and enforced by RSS polling (hard,
	// SIGKILL + resource classification). 0 = unlimited.
	MemLimitMB int64
	// ReadRSS reads a process's resident set in bytes (test seam;
	// default reads /proc/<pid>/statm, and RSS enforcement is skipped
	// where that fails, e.g. non-Linux hosts).
	ReadRSS func(pid int) (int64, error)

	// Restarts is the default daemon-level worker-respawn budget per
	// job (default 2). The budget is per daemon incarnation: a job
	// carried across a daemon restart gets a fresh budget, because the
	// daemon failing is not evidence against the job. BreakerThreshold
	// consecutive non-retryable job failures of one workload config
	// open its circuit breaker for BreakerCooldown (defaults 3, 1m).
	Restarts         int
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// RetryAfter is the backpressure floor returned with HTTP 429 when
	// no job latency has been measured yet (default 2s). Once jobs
	// complete, Retry-After reflects the measured queue drain rate
	// (p50 job latency × queue position).
	RetryAfter time.Duration

	// Per-tenant admission defaults. TenantMaxQueued caps how much of
	// the bounded queue one tenant may hold (0 = no per-tenant cap —
	// the global QueueDepth still bounds); TenantMaxRunning caps a
	// tenant's concurrent workers (0 = no cap). TenantPolicies carries
	// per-tenant overrides keyed by tenant name; zero-valued policy
	// fields inherit these defaults, -1 means explicitly unlimited.
	TenantMaxQueued  int
	TenantMaxRunning int
	TenantPolicies   map[string]TenantPolicy

	// CompactEvery bounds the job-store WAL between snapshot
	// compactions (default 256 records), which bounds startup replay.
	CompactEvery int

	// Journal receives the service's JSONL job journal (nil = none),
	// in the supervisor entry format ptlmon -journal renders.
	Journal io.Writer

	// HeartbeatMs is the worker's heartbeat cadence (default 250).
	HeartbeatMs int64
}

func (cfg *Config) applyDefaults() {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 10 * time.Minute
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = time.Minute
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.ReadRSS == nil {
		cfg.ReadRSS = procRSS
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 2
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Minute
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 256
	}
	if cfg.HeartbeatMs <= 0 {
		cfg.HeartbeatMs = 250
	}
}

// Admission errors (the HTTP layer maps these to status codes).
var (
	// ErrQueueFull: backpressure — the bounded queue is at depth.
	ErrQueueFull = errors.New("jobd: queue full")
	// ErrDraining: the daemon is shutting down and admits nothing new.
	ErrDraining = errors.New("jobd: draining")
	// ErrStaleEpoch: a campaign submission carried a lease epoch below
	// the highest this daemon has accepted for the same grid cell — a
	// superseded lease trying to re-admit its job (fencing).
	ErrStaleEpoch = errors.New("jobd: stale lease epoch for campaign cell")
	// ErrTenantQuota: the submitting tenant is at its queued-job quota
	// (tenant-scoped backpressure; other tenants are unaffected).
	ErrTenantQuota = errors.New("jobd: tenant queued-job quota exceeded")
	// ErrDeadlineShed: the job's client deadline is shorter than its
	// estimated queue wait — admitted it could only time out, so it is
	// shed at admission instead of after consuming a worker.
	ErrDeadlineShed = errors.New("jobd: estimated queue wait exceeds client deadline")
)

// job is the daemon-side job record; mu guards the mutable status.
type job struct {
	mu   sync.Mutex
	st   Status
	spec Spec // resolved spec (daemon defaults applied), what the worker sees

	key       uint64 // breaker config key
	probe     bool   // admitted as the breaker's half-open probe
	seq       uint64 // admission order within the admit queue (FIFO tiebreak)
	submitted time.Time
	started   time.Time
	deadline  time.Duration
	memLimit  int64 // bytes, 0 = unlimited
	restarts  int

	cancel chan struct{} // closed to force-stop the job's workers
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// orphan identifies a worker process a previous daemon incarnation
// spawned: the recovery adoption candidate.
type orphan struct {
	pid      int
	pidStart uint64
	started  time.Time // attempt start (deadline base)
	attempt  int
}

// resumeInfo is one recovered running job awaiting adoption or reaping
// once Start launches the pool.
type resumeInfo struct {
	j *job
	o orphan
}

// RecoverySummary describes what New replayed out of the job store.
type RecoverySummary struct {
	Jobs     int // jobs in the store
	Terminal int // already done/failed (kept for status + idempotency)
	Requeued int // queued jobs re-admitted to the queue
	Resumed  int // running jobs handed to adopt-or-reap
	Skipped  int // unparseable WAL lines tolerated (torn writes)
}

// Daemon is the job service: a bounded queue feeding a fixed pool of
// worker-runner goroutines, each of which spawns and babysits one
// isolated worker subprocess at a time. Every job state transition is
// write-ahead logged to the durable job store, so a daemon crash loses
// no accepted job: on restart the store is replayed, queued jobs are
// re-admitted, and running jobs are adopted (their orphan worker is
// still alive) or reaped and respawned from rotated checkpoints.
type Daemon struct {
	cfg     Config
	journal *supervisor.Journal
	breaker *Breaker
	store   *JobStore

	// metrics is the ONE registry behind both /statz (integer snapshot
	// via Counters) and /metrics (Prometheus text): every daemon counter
	// and derived gauge lives here, so the two endpoints can never
	// drift apart.
	metrics  *metrics.Registry
	admitLat *metrics.Histogram // admission decision latency (ms)

	// latMu guards the completed-job latency ring (Retry-After's
	// drain-rate estimate).
	latMu sync.Mutex
	lats  []int64

	// queue is the multi-tenant admission layer: per-tenant priority
	// heaps with weighted fair dequeue and quota enforcement. It has
	// its own lock; pushes are additionally serialized under mu.
	queue *admitQueue

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string
	resume    []resumeInfo // recovered running jobs, launched by Start
	draining  bool
	nextID    int
	cellEpoch map[string]int64 // campaign cell → highest accepted lease epoch

	recovery RecoverySummary

	wg sync.WaitGroup // worker-runner goroutines
}

// New builds a daemon, replaying the durable job store in cfg.Dir if a
// previous incarnation left one. Start launches its worker pool and
// the recovered jobs.
func New(cfg Config) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobd: Dir must be set")
	}
	if cfg.WorkerCommand == nil {
		return nil, fmt.Errorf("jobd: WorkerCommand must be set")
	}
	cfg.applyDefaults()
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("jobd: data dir: %w", err)
	}
	store, err := OpenJobStore(cfg.Dir, cfg.CompactEvery)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		metrics:   metrics.NewRegistry(),
		journal:   supervisor.NewJournal(cfg.Journal),
		breaker:   NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		store:     store,
		jobs:      map[string]*job{},
		cellEpoch: map[string]int64{},
	}
	d.queue = newAdmitQueue(
		TenantPolicy{MaxQueued: cfg.TenantMaxQueued, MaxRunning: cfg.TenantMaxRunning},
		cfg.TenantPolicies, d.metrics)
	d.registerGauges()
	if err := d.recoverFromStore(); err != nil {
		return nil, err
	}
	return d, nil
}

// registerGauges installs the derived (callback) gauges on the
// registry: values computed from live daemon state rather than
// monotonic counts. The callbacks run outside the registry lock and
// take the daemon's own locks, so scrapes see consistent state.
func (d *Daemon) registerGauges() {
	d.metrics.GaugeFunc("jobd.latency.p50_ms", func() float64 {
		return float64(d.latencyP50())
	})
	d.metrics.GaugeFunc("jobd.retry_after_ms", func() float64 {
		return float64(d.RetryAfter().Milliseconds())
	})
	d.metrics.GaugeFunc("jobd.queue.depth", func() float64 {
		return float64(d.queue.Len())
	})
	d.admitLat = d.metrics.Histogram("jobd.admission.latency_ms",
		[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000})
	d.metrics.GaugeFunc("jobd.jobs.queued", func() float64 {
		return float64(d.stateCount(StateQueued))
	})
	d.metrics.GaugeFunc("jobd.jobs.running", func() float64 {
		return float64(d.stateCount(StateRunning))
	})
	d.metrics.GaugeFunc("jobd.breaker.open", func() float64 {
		return float64(d.breaker.OpenCount())
	})
	d.metrics.GaugeFunc("jobd.store.compactions", func() float64 {
		return float64(d.store.Compactions())
	})
}

// stateCount counts tracked jobs currently in one lifecycle state.
func (d *Daemon) stateCount(st State) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, j := range d.jobs {
		j.mu.Lock()
		if j.st.State == st {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Metrics exposes the daemon's registry so the HTTP layer can serve
// the Prometheus exposition from the same source as /statz.
func (d *Daemon) Metrics() *metrics.Registry { return d.metrics }

// Store exposes the durable job store (event streams, inspection).
func (d *Daemon) Store() *JobStore { return d.store }

// Recovery reports what New replayed from the job store.
func (d *Daemon) Recovery() RecoverySummary { return d.recovery }

// Start launches the worker pool and the adopt-or-reap goroutines for
// recovered running jobs.
func (d *Daemon) Start() {
	for i := 0; i < d.cfg.Workers; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				j, ok := d.queue.pop()
				if !ok {
					return
				}
				d.runJob(j)
			}
		}()
	}
	d.mu.Lock()
	resume := d.resume
	d.resume = nil
	d.mu.Unlock()
	for _, ri := range resume {
		d.wg.Add(1)
		go func(ri resumeInfo) {
			defer d.wg.Done()
			d.resumeJob(ri.j, ri.o)
		}(ri)
	}
}

// Counters snapshots the daemon's statistics counters (jobs admitted,
// rejected, retried, workers killed by reason, …) plus the derived
// gauges (queue depth, breaker state, p50 latency, Retry-After). The
// snapshot comes from the same registry /metrics serves, so the two
// views cannot drift.
func (d *Daemon) Counters() map[string]int64 {
	return d.metrics.Ints()
}

// noteLatency records one completed job's submit→finish latency for
// the drain-rate estimate (a bounded ring of recent samples).
func (d *Daemon) noteLatency(ms int64) {
	if ms <= 0 {
		return
	}
	d.latMu.Lock()
	defer d.latMu.Unlock()
	const ringCap = 256
	if len(d.lats) >= ringCap {
		d.lats = d.lats[1:]
	}
	d.lats = append(d.lats, ms)
}

// latencyP50 is the median completed-job latency in ms (0 = no
// samples yet).
func (d *Daemon) latencyP50() int64 {
	d.latMu.Lock()
	samples := append([]int64(nil), d.lats...)
	d.latMu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// RetryAfter is the backpressure hint for queue-full rejections:
// measured queue drain rate — the p50 completed-job latency times the
// rejected client's expected queue position — so clients back off
// realistically during recovery storms instead of hammering a constant
// cadence. Before any job completes it falls back to the configured
// constant.
func (d *Daemon) RetryAfter() time.Duration {
	p50 := d.latencyP50()
	if p50 <= 0 {
		return d.cfg.RetryAfter
	}
	// The pool drains Workers jobs per p50 on average; a queue-full
	// client needs at least one full drain cycle plus its share of the
	// backlog.
	return clampRetry(time.Duration(int64(d.queue.Len())/int64(d.cfg.Workers)+1) *
		time.Duration(p50) * time.Millisecond)
}

// RetryAfterTenant is the tenant-scoped backpressure hint for quota and
// shed rejections: it reflects the *tenant's own* backlog (queued plus
// running) rather than the global queue, so a throttled greedy tenant
// backs off on its own drain rate while other tenants keep submitting.
func (d *Daemon) RetryAfterTenant(tenant string) time.Duration {
	p50 := d.latencyP50()
	if p50 <= 0 {
		return d.cfg.RetryAfter
	}
	tq, tr := d.queue.tenantLoad(tenant)
	return clampRetry(time.Duration(int64(tq+tr)/int64(d.cfg.Workers)+1) *
		time.Duration(p50) * time.Millisecond)
}

func clampRetry(est time.Duration) time.Duration {
	if est < time.Second {
		est = time.Second
	}
	if max := 5 * time.Minute; est > max {
		est = max
	}
	return est
}

// estimatedWaitMs is the expected queue wait for a job admitted now:
// the measured p50 job latency times the job's expected queue position
// in worker-drain cycles. 0 when the latency ring is cold — shedding
// fails open until the daemon has evidence.
func (d *Daemon) estimatedWaitMs() int64 {
	p50 := d.latencyP50()
	if p50 <= 0 {
		return 0
	}
	return (int64(d.queue.Len())/int64(d.cfg.Workers) + 1) * p50
}

// Accepting reports whether new jobs are admitted (false once draining).
func (d *Daemon) Accepting() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.draining
}

// resolveJob applies daemon defaults to a validated spec, producing
// the runtime job record. Shared by admission and store recovery so a
// recovered job runs under exactly the knobs it was admitted with.
func (d *Daemon) resolveJob(spec Spec) *job {
	j := &job{
		spec:     spec,
		key:      spec.ConfigKey(),
		deadline: d.cfg.Deadline,
		memLimit: d.cfg.MemLimitMB << 20,
		restarts: d.cfg.Restarts,
		cancel:   make(chan struct{}),
	}
	if spec.DeadlineMs > 0 {
		j.deadline = time.Duration(spec.DeadlineMs) * time.Millisecond
	}
	// The client's end-to-end budget caps the per-attempt deadline: an
	// attempt outliving the client's interest is pure waste.
	if cd := time.Duration(spec.ClientDeadlineMs) * time.Millisecond; cd > 0 && cd < j.deadline {
		j.deadline = cd
	}
	switch {
	case spec.MemLimitMB > 0:
		j.memLimit = spec.MemLimitMB << 20
	case spec.MemLimitMB < 0:
		j.memLimit = 0
	}
	switch {
	case spec.Restarts > 0:
		j.restarts = spec.Restarts
	case spec.Restarts < 0:
		j.restarts = 0
	}
	j.spec.HeartbeatMs = d.cfg.HeartbeatMs
	return j
}

// Submit validates and admits a job (no idempotency key).
func (d *Daemon) Submit(spec Spec) (Status, error) {
	st, _, err := d.SubmitKey(spec, "")
	return st, err
}

// SubmitKey validates and admits a job. A non-empty idemKey dedupes
// resubmissions: if a job was already accepted under the key — in this
// daemon incarnation or any previous one, the mapping is durable in
// the job store — the original job's status is returned with
// duplicate=true and nothing new is admitted. This closes the crash
// window between acceptance and the HTTP response: the accept record
// is fsync'd before SubmitKey returns, so a client that saw the
// connection die can safely resubmit.
//
// It returns ErrQueueFull when the bounded queue is at depth
// (backpressure — the HTTP layer answers 429 + Retry-After),
// ErrTenantQuota when the submitting tenant is at its queued-job quota,
// ErrDeadlineShed when the job's client deadline is already shorter
// than its estimated queue wait (both 429 with a tenant-scoped
// Retry-After), ErrDraining during shutdown, a breaker error for a
// tripped workload config, and the spec's own error when invalid.
func (d *Daemon) SubmitKey(spec Spec, idemKey string) (Status, bool, error) {
	admitStart := time.Now()
	defer func() {
		d.admitLat.Observe(float64(time.Since(admitStart).Nanoseconds()) / 1e6)
	}()
	if err := spec.Validate(); err != nil {
		return Status{}, false, err
	}
	key := spec.ConfigKey()

	d.mu.Lock()
	if idemKey != "" {
		if id, ok := d.store.IdemLookup(idemKey); ok {
			if dup := d.jobs[id]; dup != nil {
				d.mu.Unlock()
				d.count("jobd.jobs.deduped")
				return dup.status(), true, nil
			}
		}
	}
	if d.draining {
		d.mu.Unlock()
		d.count("jobd.rejected.draining")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventReject, Kind: "draining"})
		return Status{}, false, ErrDraining
	}
	// Campaign fencing: a lease epoch below the highest accepted for
	// the same grid cell identifies a superseded lease — the dispatcher
	// already reassigned the cell, so admitting this copy could only
	// produce a duplicate (and, raced right, a clobbered) verdict. The
	// map is rebuilt from the durable store on boot, so the fence
	// survives daemon crashes. Idempotent replays of the *same* epoch
	// were already answered above.
	if ck := spec.CellKey(); ck != "" {
		if max, ok := d.cellEpoch[ck]; ok && spec.Epoch < max {
			d.mu.Unlock()
			d.count("jobd.rejected.stale_epoch")
			d.journal.Append(supervisor.Entry{Event: supervisor.EventReject, Kind: "stale-epoch",
				Message: fmt.Sprintf("cell %s epoch %d < fenced %d", ck, spec.Epoch, max)})
			return Status{}, false, fmt.Errorf("%w: cell %s epoch %d < %d",
				ErrStaleEpoch, ck, spec.Epoch, max)
		}
	}
	probe, err := d.breaker.AllowProbe(key)
	if err != nil {
		d.mu.Unlock()
		d.count("jobd.rejected.breaker")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventReject, Kind: "breaker",
			Message: err.Error()})
		return Status{}, false, err
	}
	// All queue pushes happen under d.mu (admission here, recovery in
	// New before Start), so the depth and quota checks here stay valid
	// through the push below (pops only shrink the queue) — and the
	// WAL accept record can be written before the push without risking
	// a full-queue rollback.
	tenant := tenantName(spec.Tenant)
	if d.queue.Len() >= d.cfg.QueueDepth {
		d.mu.Unlock()
		d.count("jobd.rejected.queue_full")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventReject, Kind: "queue-full",
			Tenant: tenant})
		return Status{}, false, ErrQueueFull
	}
	if quota, full := d.queue.quotaExceeded(tenant); full {
		d.mu.Unlock()
		d.count("jobd.rejected.tenant_quota")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventReject, Kind: "tenant-quota",
			Tenant: tenant, Message: fmt.Sprintf("tenant %s at queued quota %d", tenant, quota)})
		return Status{}, false, fmt.Errorf("%w: tenant %s at %d queued", ErrTenantQuota, tenant, quota)
	}
	// Deadline-aware shedding: if the client's end-to-end budget is
	// already shorter than the estimated queue wait, admitting the job
	// could only burn a worker on a result nobody is waiting for.
	// Fail fast instead, while the client can still retry elsewhere.
	if spec.ClientDeadlineMs > 0 {
		if est := d.estimatedWaitMs(); est > spec.ClientDeadlineMs {
			d.mu.Unlock()
			d.count("jobd.jobs.shed")
			d.journal.Append(supervisor.Entry{Event: supervisor.EventReject, Kind: "deadline-shed",
				Tenant: tenant, Message: fmt.Sprintf("estimated wait %dms > client deadline %dms",
					est, spec.ClientDeadlineMs)})
			return Status{}, false, fmt.Errorf("%w: estimated wait %dms > deadline %dms",
				ErrDeadlineShed, est, spec.ClientDeadlineMs)
		}
	}

	d.nextID++
	id := fmt.Sprintf("%04d", d.nextID)
	now := time.Now()
	j := d.resolveJob(spec)
	j.probe = probe
	j.submitted = now
	j.st = Status{ID: id, State: StateQueued, Spec: j.spec,
		SubmittedAt: rfc3339(now), Dir: filepath.Join(d.cfg.Dir, "jobs", id)}

	// WAL discipline: the accept record is durable before the job is
	// visible anywhere — a crash after this line recovers the job, a
	// crash before it never admitted the job.
	if _, err := d.store.Append(Record{Op: opAccept, Job: id,
		IdemKey: idemKey, Spec: &j.spec}); err != nil {
		d.nextID--
		d.mu.Unlock()
		d.count("jobd.rejected.store_error")
		return Status{}, false, fmt.Errorf("jobd: persisting accept: %w", err)
	}
	d.queue.push(j)
	d.jobs[id] = j
	d.order = append(d.order, id)
	if ck := spec.CellKey(); ck != "" && spec.Epoch > d.cellEpoch[ck] {
		d.cellEpoch[ck] = spec.Epoch
	}
	d.mu.Unlock()

	d.count("jobd.jobs.submitted")
	d.journal.Append(supervisor.Entry{Event: supervisor.EventJobSubmit, Job: id,
		Tenant: tenant, Started: rfc3339(now), Message: fmt.Sprintf("config %#x", key)})
	return j.status(), false, nil
}

// Job returns one job's status.
func (d *Daemon) Job(id string) (Status, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// Jobs returns every job's status in submission order.
func (d *Daemon) Jobs() []Status {
	return d.JobsFiltered("", 0)
}

// JobsFiltered returns job statuses in submission order, optionally
// restricted to one phase and capped at limit entries (limit <= 0 =
// unbounded). This is what a campaign dispatcher polls per node: with
// phase+limit the response is O(limit), not O(every job the daemon has
// ever run).
func (d *Daemon) JobsFiltered(phase State, limit int) []Status {
	d.mu.Lock()
	ids := append([]string(nil), d.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, d.jobs[id])
	}
	d.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		if phase != "" && st.State != phase {
			continue
		}
		out = append(out, st)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Drain gracefully shuts the daemon down: new submissions are rejected
// immediately (readyz goes unready), queued and running jobs are given
// until ctx expires to finish, and past that workers receive SIGTERM —
// which lands as a supervisor interrupt, i.e. a final checkpoint — and
// then SIGKILL. Drain returns nil when everything finished cleanly and
// ctx's error when it had to force the stop.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return fmt.Errorf("jobd: already draining")
	}
	d.draining = true
	d.queue.close()
	d.mu.Unlock()
	d.journal.Append(supervisor.Entry{Event: supervisor.EventDrain, Message: "begin"})

	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		d.signalWorkers(syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(5 * d.cfg.PollInterval):
			d.signalWorkers(syscall.SIGKILL)
			<-done
		}
	}
	if forced == nil {
		d.journal.Append(supervisor.Entry{Event: supervisor.EventDrain, Message: "complete"})
		return nil
	}
	d.journal.Append(supervisor.Entry{Event: supervisor.EventDrain,
		Message: "forced: " + forced.Error()})
	return forced
}

// signalWorkers delivers sig to every live worker process and marks
// the jobs cancelled so runJob stops respawning.
func (d *Daemon) signalWorkers(sig syscall.Signal) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, j := range d.jobs {
		j.mu.Lock()
		select {
		case <-j.cancel:
		default:
			close(j.cancel)
		}
		if j.st.PID > 0 {
			syscall.Kill(j.st.PID, sig)
		}
		j.mu.Unlock()
	}
}

func (d *Daemon) count(path string) {
	d.metrics.Counter(path).Inc()
}

// runJob owns one freshly queued job end to end: spawn a worker,
// monitor it, classify its death, and respawn from the rotated
// checkpoint directory while the classification is retryable and the
// respawn budget lasts.
func (d *Daemon) runJob(j *job) {
	jobDir := filepath.Join(d.cfg.Dir, "jobs", j.st.ID)
	if !d.prepareJobDir(j, jobDir) {
		return
	}
	j.mu.Lock()
	j.started = time.Now()
	j.st.State = StateRunning
	j.st.StartedAt = rfc3339(j.started)
	j.st.QueueWaitMs = j.started.Sub(j.submitted).Milliseconds()
	j.mu.Unlock()
	d.count("jobd.jobs.started")
	d.runAttempts(j, jobDir, 1, nil)
}

// resumeJob owns one recovered running job: adopt its still-alive
// orphan worker, or classify the dead one and respawn from the rotated
// checkpoints.
func (d *Daemon) resumeJob(j *job, o orphan) {
	jobDir := filepath.Join(d.cfg.Dir, "jobs", j.st.ID)
	if !d.prepareJobDir(j, jobDir) {
		return
	}
	d.runAttempts(j, jobDir, o.attempt, &o)
}

// prepareJobDir makes the job directory and (re)writes the spec file;
// a false return means the job was failed terminally.
func (d *Daemon) prepareJobDir(j *job, jobDir string) bool {
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		d.failJob(j, "error", fmt.Sprintf("job dir: %v", err), false)
		return false
	}
	if err := writeJSON(filepath.Join(jobDir, specFile), &j.spec); err != nil {
		d.failJob(j, "error", fmt.Sprintf("spec: %v", err), false)
		return false
	}
	return true
}

// runAttempts is the shared attempt loop. first is the attempt number
// to begin at; orph, when non-nil, makes the first iteration supervise
// the recovered orphan worker instead of spawning a fresh one.
func (d *Daemon) runAttempts(j *job, jobDir string, first int, orph *orphan) {
	id := j.st.ID
	for attempt := first; ; attempt++ {
		j.mu.Lock()
		j.st.Attempts = attempt
		cancelled := isClosed(j.cancel)
		j.mu.Unlock()
		if cancelled {
			d.failJob(j, "interrupted", "daemon stopping", false)
			return
		}

		var fail Failure
		var err error
		if orph != nil {
			err = d.superviseOrphan(j, jobDir, *orph)
			orph = nil
		} else {
			err = d.superviseWorker(j, jobDir, attempt)
		}
		switch {
		case err == nil:
			res, rerr := readResult(filepath.Join(jobDir, resultFile))
			if rerr == nil {
				d.completeJob(j, res)
				return
			}
			fail = Failure{Kind: string(simerr.KindPanic), Retryable: true,
				Message: fmt.Sprintf("worker exited 0 but result unreadable: %v", rerr)}
		default:
			var ok bool
			if fail, ok = errFailure(err); !ok {
				d.failJob(j, "error", err.Error(), false)
				return
			}
		}

		d.count("jobd.workers.exit." + fail.Kind)
		d.journal.Append(supervisor.Entry{Event: supervisor.EventWorkerExit, Job: id,
			Attempt: attempt, Kind: fail.Kind, Message: fail.Message,
			Retryable: fail.Retryable, Cycle: fail.Cycle, RIP: fail.RIP})
		d.store.Append(Record{Op: opExit, Job: id, Attempt: attempt,
			Kind: fail.Kind, Message: fail.Message})

		j.mu.Lock()
		j.st.Kind = fail.Kind
		j.st.Error = fail.Message
		retry := fail.Retryable && attempt <= j.restarts && !isClosed(j.cancel)
		j.mu.Unlock()
		if !retry {
			// Interrupted jobs (daemon drain) say nothing about the
			// workload's health — they never count toward the breaker.
			d.failJob(j, fail.Kind, fail.Message,
				!fail.Retryable && fail.Kind != "interrupted")
			return
		}
		d.count("jobd.jobs.retried")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventJobRetry, Job: id,
			Attempt: attempt, Message: "respawning from rotated checkpoints"})
	}
}

// killReason is set by the monitor before it SIGKILLs a worker, so the
// exit can be classified by cause rather than by signal.
type killReason struct {
	kind    simerr.Kind
	message string
}

// errFailureWrap carries a Failure through the error return of
// superviseWorker.
type errFailureWrap struct{ f Failure }

func (e *errFailureWrap) Error() string { return e.f.Kind + ": " + e.f.Message }

func errFailure(err error) (Failure, bool) {
	var w *errFailureWrap
	if errors.As(err, &w) {
		return w.f, true
	}
	return Failure{}, false
}

// superviseWorker spawns one worker subprocess for the job and watches
// it until exit: waitpid for death, the heartbeat file for wedging,
// the wall clock for the deadline, and RSS for the memory budget. A
// nil return means the worker exited 0; otherwise the error wraps the
// classified Failure (errFailure extracts it).
func (d *Daemon) superviseWorker(j *job, jobDir string, attempt int) error {
	// Stale verdicts from the previous attempt must not be re-read.
	os.Remove(filepath.Join(jobDir, resultFile))
	os.Remove(filepath.Join(jobDir, failureFile))

	cmd := d.cfg.WorkerCommand(jobDir)
	if cmd == nil {
		return fmt.Errorf("jobd: WorkerCommand returned nil")
	}
	cmd.Env = append(os.Environ(), cmd.Env...)
	if j.memLimit > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMEMLIMIT=%d", j.memLimit))
	}
	if cmd.Stdout == nil || cmd.Stderr == nil {
		if lf, err := os.OpenFile(filepath.Join(jobDir, logFile),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
			defer lf.Close()
			if cmd.Stdout == nil {
				cmd.Stdout = lf
			}
			if cmd.Stderr == nil {
				cmd.Stderr = lf
			}
		}
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("jobd: spawning worker: %w", err)
	}
	pid := cmd.Process.Pid
	// The worker's start time makes the (pid, start) pair a pid-reuse
	// guard: a future daemon incarnation adopts the orphan only when
	// both still match.
	pidStart, _ := procStartTime(pid)
	j.mu.Lock()
	j.st.PID = pid
	queueWait := j.st.QueueWaitMs
	j.mu.Unlock()
	d.journal.Append(supervisor.Entry{Event: supervisor.EventJobStart, Job: j.st.ID,
		Attempt: attempt, PID: pid, Started: rfc3339(start),
		Tenant: tenantName(j.spec.Tenant), QueueWaitMs: queueWait})
	d.store.Append(Record{Op: opStart, Job: j.st.ID, Attempt: attempt,
		PID: pid, PIDStart: pidStart})

	waitDone := make(chan error, 1)
	go func() { waitDone <- cmd.Wait() }()
	waitErr, reason := d.monitorWorker(j, jobDir, workerProc{pid: pid, start: start, wait: waitDone})
	return d.classifyExit(j, jobDir, waitErr, reason)
}

// workerProc is the monitor's handle on one live worker. A spawned
// child reports its death on wait (cmd.Wait's result). An adopted
// orphan is not our child, so waitpid is unavailable: wait is nil and
// death is the (pid, pidStart) pair no longer matching /proc. The
// zombie is init's problem — orphans are reparented.
type workerProc struct {
	pid      int
	pidStart uint64
	start    time.Time // attempt start: the deadline and heartbeat base
	wait     <-chan error
}

// monitorWorker babysits a live worker until it is gone, watching for
// its death, the job's cancel channel, and every PollInterval the
// deadline, heartbeat and RSS budgets. It SIGKILLs at most once and
// returns why; waitErr is always nil for an adopted orphan.
func (d *Daemon) monitorWorker(j *job, jobDir string, p workerProc) (waitErr error, reason *killReason) {
	kill := func(r killReason) {
		if reason != nil {
			return
		}
		reason = &r
		syscall.Kill(p.pid, syscall.SIGKILL)
	}
	ticker := time.NewTicker(d.cfg.PollInterval)
	defer ticker.Stop()
	cancel := j.cancel
monitor:
	for {
		select {
		case waitErr = <-p.wait:
			break monitor
		case <-cancel:
			kill(killReason{kind: "interrupted", message: "daemon stopping"})
			cancel = nil // fired once; a nil channel never selects again
		case <-ticker.C:
			if p.wait == nil && !sameProcess(p.pid, p.pidStart) {
				break monitor
			}
			if r := d.checkWorkerBudgets(j, jobDir, p.pid, p.start); r != nil {
				kill(*r)
			}
		}
	}
	j.mu.Lock()
	j.st.PID = 0
	j.mu.Unlock()
	return waitErr, reason
}

// checkWorkerBudgets evaluates one monitor tick's deadline, heartbeat
// and RSS budgets for a live worker, returning a kill reason when one
// is exceeded.
func (d *Daemon) checkWorkerBudgets(j *job, jobDir string, pid int, start time.Time) *killReason {
	now := time.Now()
	if j.deadline > 0 && now.Sub(start) > j.deadline {
		return &killReason{kind: simerr.KindTimeout,
			message: fmt.Sprintf("wall-clock deadline %v exceeded", j.deadline)}
	}
	if d.cfg.HeartbeatTimeout > 0 {
		hbPath := filepath.Join(jobDir, heartbeatFile)
		if st, err := os.Stat(hbPath); err == nil &&
			now.Sub(latest(st.ModTime(), start)) > d.cfg.HeartbeatTimeout {
			return &killReason{kind: simerr.KindTimeout,
				message: fmt.Sprintf("worker heartbeat stale for %v (wedged)", d.cfg.HeartbeatTimeout)}
		}
	}
	if j.memLimit > 0 {
		if rss, err := d.cfg.ReadRSS(pid); err == nil && rss > j.memLimit {
			return &killReason{kind: simerr.KindResource,
				message: fmt.Sprintf("worker RSS %dMB over budget %dMB", rss>>20, j.memLimit>>20)}
		}
	}
	return nil
}

// superviseOrphan re-attaches to (or buries) a worker spawned by a
// previous daemon incarnation. The adopt-vs-reap decision table:
//
//   - pid alive and /proc start time matches the recorded one: the
//     same process incarnation — ADOPT. The monitors (heartbeat file,
//     deadline from the recorded attempt start, RSS) re-attach and the
//     job continues without a respawn.
//   - pid alive but start time differs: the pid was reused by an
//     unrelated process, which means our worker is dead. Never signal
//     the impostor; treat the worker as dead.
//   - pid dead, or start time unreadable (no procfs): treat the
//     worker as dead.
//
// A dead worker is classified by what it left in the job directory —
// result.json (success), failure.json (its own classification), or
// nothing (panic, retryable) — and the caller respawns from the
// rotated checkpoints when retryable.
func (d *Daemon) superviseOrphan(j *job, jobDir string, o orphan) error {
	if sameProcess(o.pid, o.pidStart) {
		j.mu.Lock()
		j.st.PID = o.pid
		j.st.Adopted = true
		j.mu.Unlock()
		d.count("jobd.jobs.adopted")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventJobAdopt, Job: j.st.ID,
			Attempt: o.attempt, PID: o.pid,
			Message: "orphan worker adopted after daemon restart"})
		d.store.Append(Record{Op: opAdopt, Job: j.st.ID, Attempt: o.attempt,
			PID: o.pid, PIDStart: o.pidStart})

		start := o.started
		if start.IsZero() {
			start = time.Now()
		}
		_, reason := d.monitorWorker(j, jobDir, workerProc{pid: o.pid, pidStart: o.pidStart, start: start})
		if reason != nil {
			return d.classifyExit(j, jobDir, errors.New("killed by monitor"), reason)
		}
	} else {
		d.count("jobd.jobs.reaped")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventJobRetry, Job: j.st.ID,
			Attempt: o.attempt, PID: o.pid,
			Message: "recorded worker dead or pid reused; resuming from rotated checkpoints"})
	}

	// The worker is gone (or never survived the daemon): classify by
	// its verdict files.
	if _, err := os.Stat(filepath.Join(jobDir, resultFile)); err == nil {
		return nil // finished while the daemon was down
	}
	if f, err := readFailure(filepath.Join(jobDir, failureFile)); err == nil {
		return &errFailureWrap{*f}
	}
	return &errFailureWrap{Failure{Kind: string(simerr.KindPanic), Retryable: true,
		Message: "worker died while the daemon was down"}}
}

// classifyExit turns a worker's death into the simerr taxonomy:
//
//   - exit 0: success (the caller reads result.json)
//   - killed by the monitor: the monitor's reason (timeout/resource)
//   - structured exit (failure.json): the worker's own classification
//   - any other death — external SIGKILL, OOM kill, panic without a
//     report, unknown exit code: KindPanic, retryable, because the
//     rotated checkpoints make a resume both safe and cheap.
func (d *Daemon) classifyExit(j *job, jobDir string, waitErr error, reason *killReason) error {
	if waitErr == nil {
		// Exited 0 — even if a kill raced the exit, the worker finished
		// its work and wrote its result.
		return nil
	}
	if reason != nil {
		retryable := reason.kind.Retryable()
		if reason.kind == simerr.KindResource && j.spec.RetryResource {
			retryable = true
		}
		return &errFailureWrap{Failure{Kind: string(reason.kind),
			Message: reason.message, Retryable: retryable}}
	}
	if f, err := readFailure(filepath.Join(jobDir, failureFile)); err == nil {
		return &errFailureWrap{*f}
	}
	var ee *exec.ExitError
	if errors.As(waitErr, &ee) && ee.ExitCode() == ExitSetup {
		return &errFailureWrap{Failure{Kind: "error",
			Message: "worker setup failed (see worker.log)", Retryable: false}}
	}
	return &errFailureWrap{Failure{Kind: string(simerr.KindPanic),
		Message: fmt.Sprintf("worker died: %v", waitErr), Retryable: true}}
}

func (d *Daemon) completeJob(j *job, res *Result) {
	now := time.Now()
	j.mu.Lock()
	j.st.State = StateDone
	j.st.Result = res
	j.st.Kind = ""
	j.st.Error = ""
	j.st.FinishedAt = rfc3339(now)
	j.st.ElapsedMs = now.Sub(j.submitted).Milliseconds()
	id, elapsed, queueWait := j.st.ID, j.st.ElapsedMs, j.st.QueueWaitMs
	started := j.submitted
	j.mu.Unlock()
	d.queue.done(j.spec.Tenant)
	d.breaker.Success(j.key)
	d.noteLatency(elapsed)
	d.count("jobd.jobs.done")
	d.store.Append(Record{Op: opDone, Job: id, Result: res, Phase: StateDone})
	d.journal.Append(supervisor.Entry{Event: supervisor.EventJobDone, Job: id,
		Cycle: res.Cycles, Insns: res.Insns, Tenant: tenantName(j.spec.Tenant),
		QueueWaitMs: queueWait, Started: rfc3339(started), ElapsedMs: elapsed})
}

func (d *Daemon) failJob(j *job, kind, message string, breaker bool) {
	now := time.Now()
	j.mu.Lock()
	j.st.State = StateFailed
	j.st.Kind = kind
	j.st.Error = message
	j.st.FinishedAt = rfc3339(now)
	j.st.ElapsedMs = now.Sub(j.submitted).Milliseconds()
	id, elapsed, queueWait := j.st.ID, j.st.ElapsedMs, j.st.QueueWaitMs
	started := j.submitted
	probe := j.probe
	j.mu.Unlock()
	d.queue.done(j.spec.Tenant)
	d.count("jobd.jobs.failed")
	d.store.Append(Record{Op: opFail, Job: id, Kind: kind, Message: message,
		Phase: StateFailed})
	d.journal.Append(supervisor.Entry{Event: supervisor.EventJobFail, Job: id,
		Kind: kind, Message: message, Tenant: tenantName(j.spec.Tenant),
		QueueWaitMs: queueWait, Started: rfc3339(started), ElapsedMs: elapsed})
	switch {
	case breaker:
		if d.breaker.Failure(j.key) {
			d.count("jobd.breaker.opened")
			d.journal.Append(supervisor.Entry{Event: supervisor.EventBreakerOpen,
				Job: id, Message: fmt.Sprintf("config %#x admission stopped", j.key)})
		}
	case probe:
		// The half-open probe ended without a breaker verdict (e.g.
		// interrupted): release the probe slot so the next submission
		// probes again.
		d.breaker.ProbeSettled(j.key)
	}
}

func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func readFailure(path string) (*Failure, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f Failure
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// procRSS reads a process's resident set size from /proc/<pid>/statm
// (Linux). On hosts without procfs the error disables RSS enforcement
// for that poll; GOMEMLIMIT still applies inside the worker.
func procRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscanf(string(data), "%d %d", &size, &resident); err != nil {
		return 0, err
	}
	return resident * int64(os.Getpagesize()), nil
}
