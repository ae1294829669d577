package jobd

import (
	"context"
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

	// Journal receives the service's JSONL journal (nil = none), in the
	// supervisor entry format ptlmon -journal renders: rejections,
	// recovery, breaker trips, drain and job-store write failures —
	// what is not a job. A job's life is the store's records.
	Journal io.Writer
}

const (
	// coldRetryAfter is the Retry-After hint for a 429 sent before any
	// job has completed; after that the hint is the measured queue drain
	// rate (p50 job latency × queue position).
	coldRetryAfter = 2 * time.Second
)

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
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 256
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

// job is the daemon's runtime handle on one job it has to run: what it
// needs to schedule and budget the job's workers. It is immutable once
// queued and holds none of the job's lifecycle state — that lives in
// the store's JobState and nowhere else.
type job struct {
	id   string
	spec Spec // resolved spec (daemon defaults applied), what the worker sees

	key      uint64 // breaker config key
	probe    bool   // admitted as the breaker's half-open probe
	seq      uint64 // admission order within the admit queue (FIFO tiebreak)
	deadline time.Duration
	memLimit int64 // bytes, 0 = unlimited
	restarts int
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
	resume    []resumeInfo // recovered running jobs, launched by Start
	draining  bool
	nextID    int
	cellEpoch map[string]int64 // campaign cell → highest accepted lease epoch

	// stop is closed once, by a Drain whose context expired: every
	// monitor then stops its worker, and no job spawns another.
	stop chan struct{}

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
		cellEpoch: map[string]int64{},
		stop:      make(chan struct{}),
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
		return float64(d.store.phaseCount(StateQueued))
	})
	d.metrics.GaugeFunc("jobd.jobs.running", func() float64 {
		return float64(d.store.phaseCount(StateRunning))
	})
	d.metrics.GaugeFunc("jobd.breaker.open", func() float64 {
		return float64(d.breaker.OpenCount())
	})
	d.metrics.GaugeFunc("jobd.store.compactions", func() float64 {
		return float64(d.store.Compactions())
	})
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
				d.runJob(j, nil)
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
			d.runJob(ri.j, &ri.o)
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

// drainWait is the expected wait of a job with backlog jobs ahead of
// it: the pool drains Workers jobs per p50 completed-job latency, so the
// job waits out its share of the backlog plus one full drain cycle. 0
// while the latency ring is cold.
func (d *Daemon) drainWait(backlog int) time.Duration {
	cycles := int64(backlog)/int64(d.cfg.Workers) + 1
	return time.Duration(cycles*d.latencyP50()) * time.Millisecond
}

// retryHint turns a drain wait into a Retry-After value: clamped to
// [1s, 5m], and coldRetryAfter before any job has completed. Clients
// thus back off at the measured drain rate during recovery storms
// instead of hammering a constant cadence.
func retryHint(wait time.Duration) time.Duration {
	if wait <= 0 {
		return coldRetryAfter
	}
	return min(max(wait, time.Second), 5*time.Minute)
}

// RetryAfter is the backpressure hint for queue-full rejections: the
// drain wait of the whole queue.
func (d *Daemon) RetryAfter() time.Duration {
	return retryHint(d.drainWait(d.queue.Len()))
}

// RetryAfterTenant is the hint for quota and shed rejections: the drain
// wait of the tenant's own backlog (queued plus running), so a
// throttled greedy tenant backs off on its own drain rate while other
// tenants keep submitting.
func (d *Daemon) RetryAfterTenant(tenant string) time.Duration {
	tq, tr := d.queue.tenantLoad(tenant)
	return retryHint(d.drainWait(tq + tr))
}

// estimatedWaitMs is the expected queue wait for a job admitted now. 0
// when the latency ring is cold — shedding fails open until the daemon
// has evidence.
func (d *Daemon) estimatedWaitMs() int64 {
	return d.drainWait(d.queue.Len()).Milliseconds()
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
func (d *Daemon) resolveJob(id string, spec Spec) *job {
	j := &job{
		id:       id,
		spec:     spec,
		key:      spec.ConfigKey(),
		deadline: d.cfg.Deadline,
		memLimit: d.cfg.MemLimitMB << 20,
		restarts: d.cfg.Restarts,
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
			d.mu.Unlock()
			d.count("jobd.jobs.deduped")
			st, _ := d.store.status(id)
			return st, true, nil
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
	j := d.resolveJob(fmt.Sprintf("%04d", d.nextID), spec)
	j.probe = probe

	// WAL discipline: the accept record is durable before the job is
	// visible anywhere — a crash after this line recovers the job, a
	// crash before it never admitted the job.
	st, err := d.commit(Record{Op: opAccept, Job: j.id, IdemKey: idemKey, Spec: &j.spec})
	if err != nil {
		d.nextID--
		d.mu.Unlock()
		d.count("jobd.rejected.store_error")
		return Status{}, false, fmt.Errorf("jobd: persisting accept: %w", err)
	}
	d.queue.push(j)
	if ck := spec.CellKey(); ck != "" && spec.Epoch > d.cellEpoch[ck] {
		d.cellEpoch[ck] = spec.Epoch
	}
	d.mu.Unlock()

	d.count("jobd.jobs.submitted")
	return st, false, nil
}

// commit makes one lifecycle transition, which is exactly one record
// appended to the store: the transition happens, and becomes visible to
// every reader, when the append returns. It answers with the job's
// status as of that record. A failed append means the transition did
// not happen — it is counted and journalled, and the job stays in its
// last durable phase, which is also where a restarted daemon would pick
// it up (from result.json / failure.json if the worker got that far).
func (d *Daemon) commit(rec Record) (Status, error) {
	id, op := rec.Job, rec.Op
	rec, err := d.store.Append(rec)
	if err != nil {
		d.count("jobd.store.append_errors")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventFailure, Job: id,
			Kind: "store", Message: fmt.Sprintf("%s record: %v", op, err)})
		if rec.Seq == 0 {
			return Status{}, err
		}
		// Durable and applied; only the compaction after it failed.
	}
	st, _ := d.store.status(id)
	return st, nil
}

// Job returns one job's status.
func (d *Daemon) Job(id string) (Status, bool) {
	return d.store.status(id)
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
	return d.store.statuses(phase, limit)
}

// Drain gracefully shuts the daemon down: new submissions are rejected
// immediately (readyz goes unready), queued and running jobs are given
// until ctx expires to finish, and past that Drain closes the stop
// channel and waits: each worker's monitor sends SIGTERM — which lands
// as a supervisor interrupt, i.e. a final checkpoint — and SIGKILL after
// a grace, and the jobs still queued fail as interrupted without a
// worker. Drain returns nil when everything finished cleanly and ctx's
// error when it had to force the stop.
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
		close(d.stop)
		<-done
	}
	if forced == nil {
		d.journal.Append(supervisor.Entry{Event: supervisor.EventDrain, Message: "complete"})
		return nil
	}
	d.journal.Append(supervisor.Entry{Event: supervisor.EventDrain,
		Message: "forced: " + forced.Error()})
	return forced
}

func (d *Daemon) count(path string) {
	d.metrics.Counter(path).Inc()
}

// runJob owns one job until it is terminal: spawn a worker, monitor
// it, classify its death, and respawn from the rotated checkpoint
// directory while the classification is retryable and the respawn
// budget lasts. orph, when non-nil, is a recovered running job's
// recorded worker: the first iteration adopts or buries it instead of
// spawning a fresh one. Every return follows completeJob or failJob;
// once the stop channel is closed no further worker is spawned.
func (d *Daemon) runJob(j *job, orph *orphan) {
	jobDir := filepath.Join(d.cfg.Dir, "jobs", j.id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		d.failJob(j, "error", fmt.Sprintf("job dir: %v", err), false)
		return
	}
	if err := writeJSON(filepath.Join(jobDir, specFile), &j.spec); err != nil {
		d.failJob(j, "error", fmt.Sprintf("spec: %v", err), false)
		return
	}
	attempt := 1
	if orph != nil {
		attempt = orph.attempt
	} else {
		d.count("jobd.jobs.started")
	}
	for ; ; attempt++ {
		select {
		case <-d.stop:
			d.failJob(j, "interrupted", "daemon stopping", false)
			return
		default:
		}

		var res *Result
		var err error
		if orph != nil {
			res, err = d.superviseOrphan(j, jobDir, *orph)
			orph = nil
		} else {
			res, err = d.superviseWorker(j, jobDir, attempt)
		}
		if err == nil {
			d.completeJob(j, res)
			return
		}
		var fail *Failure
		if !errors.As(err, &fail) {
			d.failJob(j, "error", err.Error(), false)
			return
		}

		d.count("jobd.workers.exit." + fail.Kind)
		d.commit(Record{Op: opExit, Job: j.id, Attempt: attempt, Kind: fail.Kind,
			Message: fail.Message, Retryable: fail.Retryable, Cycle: fail.Cycle, RIP: fail.RIP})

		if !fail.Retryable || attempt > j.restarts {
			// Interrupted jobs (daemon drain) say nothing about the
			// workload's health — they never count toward the breaker.
			d.failJob(j, fail.Kind, fail.Message,
				!fail.Retryable && fail.Kind != "interrupted")
			return
		}
		d.count("jobd.jobs.retried")
	}
}

// killReason is set by the monitor before it signals a worker, so the
// exit can be classified by cause rather than by signal.
type killReason struct {
	kind    simerr.Kind
	message string
}

// superviseWorker spawns one worker subprocess for the job and watches
// it until exit: waitpid for death, the heartbeat file for wedging,
// the wall clock for the deadline, and RSS for the memory budget. It
// returns the worker's result, or an error that is the classified
// *Failure unless the worker could not be spawned at all.
func (d *Daemon) superviseWorker(j *job, jobDir string, attempt int) (*Result, error) {
	// Stale verdicts from the previous attempt must not be re-read.
	os.Remove(filepath.Join(jobDir, resultFile))
	os.Remove(filepath.Join(jobDir, failureFile))

	cmd := d.cfg.WorkerCommand(jobDir)
	if cmd == nil {
		return nil, fmt.Errorf("jobd: WorkerCommand returned nil")
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
		return nil, fmt.Errorf("jobd: spawning worker: %w", err)
	}
	pid := cmd.Process.Pid
	// The worker's start time makes the (pid, start) pair a pid-reuse
	// guard: a future daemon incarnation adopts the orphan only when
	// both still match.
	pidStart, _ := procStartTime(pid)
	d.commit(Record{Op: opStart, Job: j.id, Attempt: attempt, PID: pid, PIDStart: pidStart})

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
// its death, the daemon's stop channel, and every PollInterval the
// deadline, heartbeat and RSS budgets. It is the only code that signals
// a worker, spawned or adopted, and it records one reason: a budget
// breach is answered with SIGKILL; stop with SIGTERM — the worker's
// cue to write a final checkpoint — and SIGKILL after a grace of five
// polls. It returns the reason; waitErr is always nil for an adopted
// orphan.
func (d *Daemon) monitorWorker(j *job, jobDir string, p workerProc) (waitErr error, reason *killReason) {
	signal := func(sig syscall.Signal) {
		// An orphan is not our child: its pid may have been reused since
		// the last poll, and an impostor is never signalled.
		if p.wait == nil && !sameProcess(p.pid, p.pidStart) {
			return
		}
		syscall.Kill(p.pid, sig)
	}
	ticker := time.NewTicker(d.cfg.PollInterval)
	defer ticker.Stop()
	stop := d.stop
	var grace <-chan time.Time
monitor:
	for {
		select {
		case waitErr = <-p.wait:
			break monitor
		case <-stop:
			stop = nil // fired once; a nil channel never selects again
			if reason == nil {
				reason = &killReason{kind: "interrupted", message: "daemon stopping"}
				signal(syscall.SIGTERM)
				grace = time.After(5 * d.cfg.PollInterval)
			}
		case <-grace:
			signal(syscall.SIGKILL)
			grace = nil
		case <-ticker.C:
			if p.wait == nil && !sameProcess(p.pid, p.pidStart) {
				break monitor
			}
			if reason == nil {
				if reason = d.checkWorkerBudgets(j, jobDir, p.pid, p.start); reason != nil {
					signal(syscall.SIGKILL)
				}
			}
		}
	}
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
// A dead worker is classified by classifyExit, from what it left in the
// job directory, and the caller respawns from the rotated checkpoints
// when that is retryable. An orphan is not our child, so there is no
// exit status: the error handed to classifyExit only says when it died.
func (d *Daemon) superviseOrphan(j *job, jobDir string, o orphan) (*Result, error) {
	if !sameProcess(o.pid, o.pidStart) {
		d.count("jobd.jobs.reaped")
		return d.classifyExit(j, jobDir, errors.New("while the daemon was down"), nil)
	}
	d.count("jobd.jobs.adopted")
	d.commit(Record{Op: opAdopt, Job: j.id, Attempt: o.attempt, PID: o.pid, PIDStart: o.pidStart})
	start := o.started
	if start.IsZero() {
		start = time.Now()
	}
	_, reason := d.monitorWorker(j, jobDir, workerProc{pid: o.pid, pidStart: o.pidStart, start: start})
	return d.classifyExit(j, jobDir, errors.New("after adoption"), reason)
}

// classifyExit turns a worker's end into its result or a *Failure in
// the simerr taxonomy:
//
//   - killed by the monitor (and not exited 0 regardless — then the
//     worker finished its work first): the monitor's reason
//     (timeout/resource/interrupted)
//   - result.json: success
//   - failure.json: the worker's own classification
//   - neither — external SIGKILL, OOM kill, panic without a report,
//     unknown exit code: KindPanic, retryable, because the rotated
//     checkpoints make a resume both safe and cheap; except the setup
//     exit code, which no retry can fix.
//
// waitErr is cmd.Wait's error for a spawned worker (nil = exited 0).
func (d *Daemon) classifyExit(j *job, jobDir string, waitErr error, reason *killReason) (*Result, error) {
	if reason != nil && waitErr != nil {
		retryable := reason.kind.Retryable()
		if reason.kind == simerr.KindResource && j.spec.RetryResource {
			retryable = true
		}
		return nil, &Failure{Kind: string(reason.kind), Message: reason.message, Retryable: retryable}
	}
	res, rerr := readJSON[Result](filepath.Join(jobDir, resultFile))
	if rerr == nil {
		return res, nil
	}
	if f, err := readJSON[Failure](filepath.Join(jobDir, failureFile)); err == nil {
		return nil, f
	}
	var ee *exec.ExitError
	switch {
	case waitErr == nil:
		return nil, &Failure{Kind: string(simerr.KindPanic), Retryable: true,
			Message: fmt.Sprintf("worker exited 0 but result unreadable: %v", rerr)}
	case errors.As(waitErr, &ee) && ee.ExitCode() == ExitSetup:
		return nil, &Failure{Kind: "error", Message: "worker setup failed (see worker.log)"}
	}
	return nil, &Failure{Kind: string(simerr.KindPanic), Retryable: true,
		Message: fmt.Sprintf("worker died: %v", waitErr)}
}

// completeJob and failJob make a job terminal. The admission slot and
// the counter (for a completed job also the breaker verdict and the
// latency sample) go first and the terminal record — the moment a
// client can see the verdict — after them, so whoever reacts to that
// record finds the slot free and the counters already telling the same
// story.
func (d *Daemon) completeJob(j *job, res *Result) {
	d.queue.done(j.spec.Tenant)
	d.breaker.Success(j.key)
	if st, ok := d.store.status(j.id); ok {
		d.noteLatency(time.Since(parseRFC3339(st.SubmittedAt)).Milliseconds())
	}
	d.count("jobd.jobs.done")
	d.commit(Record{Op: opDone, Job: j.id, Result: res, Phase: StateDone})
}

func (d *Daemon) failJob(j *job, kind, message string, breaker bool) {
	d.queue.done(j.spec.Tenant)
	d.count("jobd.jobs.failed")
	d.commit(Record{Op: opFail, Job: j.id, Kind: kind, Message: message, Phase: StateFailed})
	switch {
	case breaker:
		if d.breaker.Failure(j.key) {
			d.count("jobd.breaker.opened")
			d.journal.Append(supervisor.Entry{Event: supervisor.EventBreakerOpen,
				Job: j.id, Message: fmt.Sprintf("config %#x admission stopped", j.key)})
		}
	case j.probe:
		// The half-open probe ended without a breaker verdict (e.g.
		// interrupted): release the probe slot so the next submission
		// probes again.
		d.breaker.ProbeSettled(j.key)
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
