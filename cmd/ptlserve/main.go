// Command ptlserve is the fault-isolated simulation job service: a
// daemon that accepts simulation jobs over HTTP and executes each one
// in an isolated worker subprocess (a re-exec of this binary in a
// hidden worker mode), so one wedged, OOM-killed, or panicking
// simulation cannot take the service — or any other job — down with
// it. Workers checkpoint through the run supervisor into per-job
// rotation directories; a killed worker is respawned and resumes from
// its newest intact slot with bit-identical guest output.
//
// Examples:
//
//	ptlserve -addr 127.0.0.1:7483 -data /var/lib/ptlserve
//	curl -d '{"scale":"small","mode":"sim"}' localhost:7483/jobs
//	curl localhost:7483/jobs/0001
//	ptlmon -inspect /var/lib/ptlserve                  # jobs, from the job store
//	ptlmon -journal /var/lib/ptlserve/service.jsonl    # service events
//	ptlmon -inspect /var/lib/ptlserve/jobs/0001/ckpt
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof-addr serves the default profiling mux
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptlsim/internal/jobd"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7483", "HTTP listen address")
		dataDir    = flag.String("data", "ptlserve-data", "service data directory (per-job specs, checkpoints, journals)")
		queueDepth = flag.Int("queue", 8, "bounded job queue depth (backpressure past it: HTTP 429)")
		workers    = flag.Int("workers", 2, "concurrent worker subprocesses")
		deadline   = flag.Duration("deadline", 10*time.Minute, "default per-attempt wall-clock deadline")
		hbTimeout  = flag.Duration("heartbeat-timeout", time.Minute, "kill a worker whose heartbeat goes stale for this long (0 = off)")
		memLimit   = flag.Int64("mem-limit-mb", 0, "default per-worker memory budget in MB (GOMEMLIMIT + RSS kill; 0 = unlimited)")
		restarts   = flag.Int("restarts", 2, "default worker-respawn budget per job")
		brkThresh  = flag.Int("breaker-threshold", 3, "consecutive non-retryable failures that open a config's circuit breaker")
		brkCool    = flag.Duration("breaker-cooldown", time.Minute, "how long an open breaker rejects a config before re-probing")
		compactN   = flag.Int("compact-every", 256, "compact the durable job store after this many log records")
		tenQueued  = flag.Int("tenant-queued", 0, "default per-tenant queued-job quota (0 = unlimited; past it: HTTP 429)")
		tenRunning = flag.Int("tenant-running", 0, "default per-tenant running-job cap (0 = unlimited)")
		journalOut = flag.String("journal", "", "append the service journal (JSONL: rejections, recoveries, breaker trips, drain) to this file (default <data>/service.jsonl)")
		drainWait  = flag.Duration("drain-timeout", 2*time.Minute, "SIGTERM: how long running jobs get to finish before workers are stopped")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")

		// Hidden worker mode: the daemon re-execs itself with this flag
		// pointing at a job directory. Not part of the public API.
		workerDir = flag.String("ptlserve-worker", "", "internal: run as an isolated job worker on this job directory")
	)
	policies := tenantPolicyFlag{}
	flag.Var(&policies, "tenant", "per-tenant policy override, repeatable: name=maxQueued:maxRunning:weight (0 = default, -1 = unlimited)")
	flag.Parse()

	if *workerDir != "" {
		os.Exit(jobd.WorkerMain(*workerDir, os.Stderr))
	}

	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	jpath := *journalOut
	if jpath == "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			fatal(err)
		}
		jpath = *dataDir + "/service.jsonl"
	}
	jf, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fatal(err)
	}
	defer jf.Close()

	d, err := jobd.New(jobd.Config{
		Dir: *dataDir,
		WorkerCommand: func(jobDir string) *exec.Cmd {
			return exec.Command(self, "-ptlserve-worker", jobDir)
		},
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		Deadline:         *deadline,
		HeartbeatTimeout: *hbTimeout,
		MemLimitMB:       *memLimit,
		Restarts:         *restarts,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		CompactEvery:     *compactN,
		TenantMaxQueued:  *tenQueued,
		TenantMaxRunning: *tenRunning,
		TenantPolicies:   policies,
		Journal:          jf,
	})
	if err != nil {
		fatal(err)
	}
	if rec := d.Recovery(); rec.Jobs > 0 {
		fmt.Fprintf(os.Stderr,
			"ptlserve: recovered %d job(s) from the store: %d terminal, %d requeued, %d running (adopt or respawn)",
			rec.Jobs, rec.Terminal, rec.Requeued, rec.Resumed)
		if rec.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "; skipped %d torn store line(s)", rec.Skipped)
		}
		fmt.Fprintln(os.Stderr)
	}
	d.Start()

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers via the blank
			// import above; kept off the service mux so profiling is
			// never exposed on the job API address by accident.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "ptlserve: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "ptlserve: pprof on %s\n", *pprofAddr)
	}

	srv := &http.Server{Addr: *addr, Handler: d.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ptlserve: listening on %s (data %s, journal %s)\n", *addr, *dataDir, jpath)

	// SIGTERM/SIGINT: graceful drain — stop admitting (readyz goes
	// unready, submissions get 503), let running jobs finish and
	// checkpoint, then exit. A drain-timeout overrun SIGTERMs workers,
	// which land a final checkpoint through the supervisor interrupt
	// path before being stopped.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ptlserve: %v: draining (timeout %v)\n", sig, *drainWait)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	derr := d.Drain(ctx)
	srv.Shutdown(context.Background())
	if derr != nil {
		fmt.Fprintf(os.Stderr, "ptlserve: drain forced: %v\n", derr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ptlserve: drained cleanly")
}

// tenantPolicyFlag parses repeated -tenant name=maxQueued:maxRunning:weight
// overrides into the daemon's policy map. Trailing fields may be
// omitted (name=16 sets just the queued quota).
type tenantPolicyFlag map[string]jobd.TenantPolicy

func (f *tenantPolicyFlag) String() string {
	parts := make([]string, 0, len(*f))
	for name, pol := range *f {
		parts = append(parts, fmt.Sprintf("%s=%d:%d:%d", name, pol.MaxQueued, pol.MaxRunning, pol.Weight))
	}
	return strings.Join(parts, ",")
}

func (f *tenantPolicyFlag) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=maxQueued[:maxRunning[:weight]], got %q", v)
	}
	var pol jobd.TenantPolicy
	dst := []*int{&pol.MaxQueued, &pol.MaxRunning, &pol.Weight}
	fields := strings.Split(rest, ":")
	if len(fields) > len(dst) {
		return fmt.Errorf("too many fields in %q", v)
	}
	for i, fv := range fields {
		if fv == "" {
			continue
		}
		n, err := strconv.Atoi(fv)
		if err != nil {
			return fmt.Errorf("bad number %q in %q", fv, v)
		}
		*dst[i] = n
	}
	if *f == nil {
		*f = map[string]jobd.TenantPolicy{}
	}
	(*f)[name] = pol
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptlserve:", err)
	os.Exit(1)
}
