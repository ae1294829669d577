// Package jobd is the fault-isolated simulation job service behind
// cmd/ptlserve: it accepts simulation jobs (workload scale, machine
// config, fault spec) and executes each one in an isolated worker
// subprocess, so a worker panic, SIGKILL, runaway allocation, or
// wedged run is contained to that job. The daemon detects worker death
// via waitpid plus a heartbeat file, classifies it into the simerr
// taxonomy (timeout, resource, panic), and — when the classification
// is retryable — respawns the worker, which resumes from the job's
// rotated checkpoint directory through the PR 2 supervisor machinery,
// so even a SIGKILL'd job finishes with bit-identical guest output.
//
// Around that core sit the serving-robustness pieces: a bounded job
// queue with backpressure, per-job wall-clock deadlines, a per-worker
// memory budget (GOMEMLIMIT plus RSS polling), a per-config circuit
// breaker, graceful drain, the durable job store — the only account of
// a job's state and history — and, for what is not a job, a JSONL
// service journal in the shared supervisor entry format.
package jobd

import (
	"fmt"
	"hash/fnv"

	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/faultinject"
	"ptlsim/internal/guest"
)

// Spec is a simulation job request (the POST /jobs body). Zero-valued
// fields take daemon defaults; MaxCycles uses 0 = scale default and
// -1 = unlimited, since JSON cannot distinguish absent from zero.
type Spec struct {
	// Workload.
	Scale    string  `json:"scale,omitempty"`    // small | bench | paper (default bench)
	NFiles   int     `json:"nfiles,omitempty"`   // corpus file count override
	FileSize int     `json:"filesize,omitempty"` // corpus file size override (multiple of 512)
	Seed     int64   `json:"seed,omitempty"`     // corpus seed override
	Change   float64 `json:"change,omitempty"`   // corpus change fraction override (0 = default)
	Timer    uint64  `json:"timer,omitempty"`    // guest timer period in cycles

	// Engine.
	Mode      string `json:"mode,omitempty"`      // native | sim (default sim)
	Core      string `json:"core,omitempty"`      // default | k8 (default k8)
	MaxCycles int64  `json:"maxcycles,omitempty"` // 0 = scale default, -1 = unlimited
	Inject    string `json:"inject,omitempty"`    // faultinject spec list (kind@insn[:k=v,...];...)

	// Robustness knobs (0 = daemon default).
	DeadlineMs       int64  `json:"deadline_ms,omitempty"`       // per-attempt wall-clock deadline
	MemLimitMB       int64  `json:"mem_limit_mb,omitempty"`      // worker memory budget (-1 = unlimited)
	CheckpointCycles uint64 `json:"checkpoint_cycles,omitempty"` // supervisor rotation cadence
	MaxRetries       int    `json:"max_retries,omitempty"`       // in-worker supervisor retry budget
	Restarts         int    `json:"restarts,omitempty"`          // daemon worker-respawn budget (-1 = none)
	RetryResource    bool   `json:"retry_resource,omitempty"`    // re-admit after a memory-budget kill

	// Fuzz turns the job into a conformance fuzz campaign instead of a
	// benchmark run; the workload fields above are ignored. Campaigns
	// run to completion or cancellation — they are not checkpointed, so
	// a respawned worker restarts the campaign (it is deterministic in
	// the seed, so nothing is lost but wall clock).
	Fuzz *FuzzSpec `json:"fuzz,omitempty"`

	// Campaign dispatch metadata (internal/fleet). A campaign
	// dispatcher stamps each submission with the campaign name, the
	// grid cell the job computes, and the cell's current lease epoch —
	// a monotonic fencing token. The daemon rejects a submission whose
	// epoch is below the highest it has seen for the same (campaign,
	// cell), so a partitioned-then-healed dispatcher path can never
	// re-admit a superseded lease; the dispatcher applies the same
	// fence when collecting verdicts. All three fields are opaque to
	// the worker and excluded from ConfigKey — they describe the
	// dispatch, not the workload.
	Campaign string `json:"campaign,omitempty"`
	Cell     string `json:"cell,omitempty"`
	Epoch    int64  `json:"epoch,omitempty"`

	// Multi-tenant admission metadata. Tenant names the submitting
	// tenant ("" = the default tenant): the admission layer keeps one
	// priority queue, quota ledger, and fair-share account per tenant.
	// Priority orders jobs *within* a tenant (higher dequeues first;
	// cross-tenant ordering is weighted fair share, so one tenant's
	// priorities never starve another tenant). ClientDeadlineMs is the
	// submitting client's end-to-end budget: a job whose estimated
	// queue wait already exceeds it is shed at admission (HTTP 429)
	// instead of timing out after consuming a worker, and it caps the
	// per-attempt deadline once running. Like the campaign fields,
	// these describe the dispatch, not the workload, and are excluded
	// from ConfigKey.
	Tenant           string `json:"tenant,omitempty"`
	Priority         int    `json:"priority,omitempty"`
	ClientDeadlineMs int64  `json:"client_deadline_ms,omitempty"`
}

// CellKey identifies a campaign grid cell for the daemon-side epoch
// fence ("" for non-campaign jobs).
func (s *Spec) CellKey() string {
	if s.Campaign == "" {
		return ""
	}
	return s.Campaign + "/" + s.Cell
}

// FuzzSpec configures a conformance fuzz campaign job (see
// internal/conformance). Zero values take the campaign defaults.
type FuzzSpec struct {
	Seqs        int   `json:"seqs,omitempty"`         // sequences to generate (default 1000)
	Seed        int64 `json:"seed,omitempty"`         // campaign seed (deterministic stream)
	MaxUnits    int   `json:"max_units,omitempty"`    // instruction units per sequence
	MaxInsns    int64 `json:"max_insns,omitempty"`    // per-case committed-instruction budget
	TimingSeeds int   `json:"timing_seeds,omitempty"` // extra scrambled-predictor passes per case
}

// Validate rejects specs the worker could not run. It is called at
// admission so a bad job costs an HTTP 422, not a worker spawn.
func (s *Spec) Validate() error {
	switch s.Scale {
	case "", "small", "bench", "paper":
	default:
		return fmt.Errorf("jobd: unknown scale %q (want small|bench|paper)", s.Scale)
	}
	switch s.Mode {
	case "", "sim", "native":
	default:
		return fmt.Errorf("jobd: unknown mode %q (want sim|native)", s.Mode)
	}
	switch s.Core {
	case "", "default", "k8":
	default:
		return fmt.Errorf("jobd: unknown core %q (want default|k8)", s.Core)
	}
	if s.FileSize > 0 && s.FileSize%guest.BlockSize != 0 {
		return fmt.Errorf("jobd: filesize %d is not a multiple of %d", s.FileSize, guest.BlockSize)
	}
	if s.Change < 0 || s.Change > 1 {
		return fmt.Errorf("jobd: change fraction %v out of [0,1]", s.Change)
	}
	if s.ClientDeadlineMs < 0 {
		return fmt.Errorf("jobd: client deadline %dms is negative", s.ClientDeadlineMs)
	}
	if s.Inject != "" {
		if _, err := faultinject.ParseList(s.Inject); err != nil {
			return fmt.Errorf("jobd: bad fault spec: %w", err)
		}
	}
	if s.Fuzz != nil {
		if s.Fuzz.Seqs < 0 {
			return fmt.Errorf("jobd: fuzz seqs %d is negative", s.Fuzz.Seqs)
		}
		if s.Mode == "native" {
			return fmt.Errorf("jobd: fuzz jobs are dual-engine; -mode native does not apply")
		}
	}
	return nil
}

// ConfigKey identifies the workload configuration for the circuit
// breaker: jobs that would build the same guest under the same engine
// share a key, so repeated non-retryable failures of one workload stop
// its re-admission without touching unrelated configs. Robustness
// knobs (deadline, memory, retry budgets) are deliberately excluded.
func (s *Spec) ConfigKey() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%v|%d|%s|%s|%d|%s",
		s.Scale, s.NFiles, s.FileSize, s.Seed, s.Change, s.Timer,
		s.Mode, s.Core, s.MaxCycles, s.Inject)
	if s.Fuzz != nil {
		fmt.Fprintf(h, "|fuzz:%d:%d:%d:%d:%d",
			s.Fuzz.Seqs, s.Fuzz.Seed, s.Fuzz.MaxUnits, s.Fuzz.MaxInsns, s.Fuzz.TimingSeeds)
	}
	return h.Sum64()
}

// experimentConfig applies the spec's overrides to its workload scale,
// yielding the experiments.Config the worker boots from.
func (s *Spec) experimentConfig() experiments.Config {
	cfg := experiments.Scale(s.Scale)
	if s.NFiles > 0 {
		cfg.Corpus.NFiles = s.NFiles
	}
	if s.FileSize > 0 {
		cfg.Corpus.FileSize = s.FileSize
	}
	if s.Seed != 0 {
		cfg.Corpus.Seed = s.Seed
	}
	if s.Change > 0 {
		cfg.Corpus.ChangeFraction = s.Change
	}
	if s.Timer > 0 {
		cfg.TimerPeriod = s.Timer
	}
	switch {
	case s.MaxCycles < 0:
		cfg.MaxCycles = 0
	case s.MaxCycles > 0:
		cfg.MaxCycles = uint64(s.MaxCycles)
	}
	return cfg
}

// machineConfig is the core.Config the worker builds the machine with.
// It must be a pure function of the spec: a respawned worker restores
// the previous attempt's checkpoints, and snapshot.Restore rejects an
// image captured under a different config hash.
func (s *Spec) machineConfig(snapshotCycles uint64) core.Config {
	return core.Config{Core: experiments.CoreConfig(s.Core), NativeCPI: 1, ThreadsPerCore: 1,
		SnapshotCycles: snapshotCycles, WatchdogCycles: 10_000_000}
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Result is what a worker reports back for a completed job
// (result.json in the job directory).
type Result struct {
	Cycles     uint64 `json:"cycles"`
	Insns      int64  `json:"insns"`
	Console    string `json:"console"`
	ConsoleFNV uint64 `json:"console_fnv"` // FNV-64a of Console, for cheap equality checks
	// Supervisor accounting for the final (successful) attempt.
	Attempts        int    `json:"attempts"`
	Retries         int    `json:"retries"`
	DegradedWindows int    `json:"degraded_windows"`
	FinalSlot       string `json:"final_slot,omitempty"`

	// Fuzz is set for fuzz campaign jobs (Spec.Fuzz != nil); the
	// benchmark fields above are zero for those.
	Fuzz *FuzzResult `json:"fuzz,omitempty"`
}

// FuzzResult is the campaign summary a fuzz job reports. Findings are
// data, not a job failure: the campaign itself succeeded, and the
// minimized reproducers are in the job directory's findings/ subdir
// with the full event trail in the worker journal.
type FuzzResult struct {
	Seqs       int      `json:"seqs"`
	SeqsPerSec float64  `json:"seqs_per_sec"`
	ShrinkMs   int64    `json:"shrink_ms"`
	Findings   int      `json:"findings"`
	Kinds      []string `json:"kinds,omitempty"`
	Promoted   []string `json:"promoted,omitempty"`
}

// Failure is a worker's structured failure report (failure.json).
type Failure struct {
	Kind      string `json:"kind"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	Cycle     uint64 `json:"cycle,omitempty"`
	RIP       uint64 `json:"rip,omitempty"`
}

// Error makes a *Failure the error a supervised attempt ends with.
func (f *Failure) Error() string { return f.Kind + ": " + f.Message }

// Status is the externally visible view of a job (GET /jobs/{id}).
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Spec  Spec   `json:"spec"`

	// Attempts counts worker processes spawned for this job; PID is
	// the live worker's process ID (0 when no worker is running).
	// Adopted is set when a restarted daemon re-attached this job's
	// still-alive orphan worker instead of respawning it.
	Attempts int  `json:"attempts"`
	PID      int  `json:"pid,omitempty"`
	Adopted  bool `json:"adopted,omitempty"`

	// Kind/Error describe the last worker failure (terminal or retried).
	Kind  string `json:"kind,omitempty"`
	Error string `json:"error,omitempty"`

	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	ElapsedMs   int64  `json:"elapsed_ms,omitempty"`    // submit → finish wall clock
	QueueWaitMs int64  `json:"queue_wait_ms,omitempty"` // submit → first attempt start

	Result *Result `json:"result,omitempty"`

	// Dir is the job's on-disk directory (spec, checkpoints, journal) —
	// the triage entry point (ptlmon -inspect <dir>/ckpt).
	Dir string `json:"dir,omitempty"`
}

// consoleFNV hashes guest console output for Result.ConsoleFNV.
func consoleFNV(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
