package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/guest"
	"ptlsim/internal/jobd"
)

// serve_closed drives the job service the way ptlsweep-style callers
// do: each client submits a job, follows its event stream to the
// verdict, and only then submits the next (a closed loop, so a slower
// service receives less load). The daemon, its HTTP handler, the
// listener and the clients all live in this process; the workers are
// re-exec'd copies of it, one isolated process per job.

// smallCorpus mirrors jobd's "small" scale (Spec.experimentConfig):
// the harness needs it to compute each job's expected console in Go.
func smallCorpus(seed int64) guest.CorpusSpec {
	return guest.CorpusSpec{NFiles: 2, FileSize: 2048, Seed: seed, ChangeFraction: 0.3}
}

const (
	// serveSetups is how many times the service is brought up and warmed
	// before the window; setup_s is the median.
	serveSetups = 5
	// warmJobs is the number of jobs one set-up sends through the whole
	// path before anything is timed.
	warmJobs = 10
)

// service is one running daemon behind a loopback listener.
type service struct {
	d      *jobd.Daemon
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
}

// startService brings the daemon up with one worker: the benchmark
// runs on one CPU (main.go), and one closed-loop client keeps one worker
// busy.
func startService(dir string) (*service, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d, err := jobd.New(jobd.Config{
		Dir:     dir,
		Workers: 1,
		// The client has one job in flight; the bound only has to be out
		// of the way.
		QueueDepth: 4,
		WorkerCommand: func(jobDir string) *exec.Cmd {
			cmd := exec.Command(self)
			cmd.Env = []string{workerEnv + "=" + jobDir, "GOMAXPROCS=1", "GOGC=100"}
			return cmd
		},
	})
	if err != nil {
		return nil, err
	}
	d.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		d:      d,
		srv:    &http.Server{Handler: d.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the daemon (every worker has exited when it returns),
// shuts the listener down and closes the job store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.d.Drain(ctx)
	serr := s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	cerr := s.d.Store().Close()
	for _, err := range []error{derr, serr, cerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobSample is one job as its client saw it.
type jobSample struct {
	index    int
	id       string
	sent     time.Time // just before the POST
	accepted time.Time // POST answered
	verdict  time.Time // terminal record read from the event stream
	terminal jobd.Record
	err      error
}

func (j *jobSample) latencyMs() float64 { return msBetween(j.sent, j.verdict) }

// runJob submits job index (seed+index), follows its event stream to
// the terminal record and returns what happened.
func (s *service) runJob(seed int64, index int) jobSample {
	j := jobSample{index: index}
	body := fmt.Sprintf(`{"scale":"small","mode":"native","seed":%d}`, seed+int64(index))
	j.sent = time.Now()
	resp, err := s.client.Post(s.url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	var st jobd.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		j.err = fmt.Errorf("POST /jobs: HTTP %d", resp.StatusCode)
		return j
	}
	if err != nil {
		j.err = fmt.Errorf("POST /jobs: %w", err)
		return j
	}
	j.id = st.ID

	resp, err = s.client.Get(s.url + "/jobs/" + st.ID + "/events")
	if err != nil {
		j.err = err
		return j
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("GET events: HTTP %d", resp.StatusCode)
		return j
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var rec jobd.Record
		if err := json.Unmarshal(data, &rec); err != nil {
			j.err = fmt.Errorf("event stream: %w", err)
			return j
		}
		if rec.Phase == jobd.StateDone || rec.Phase == jobd.StateFailed ||
			rec.Op == "done" || rec.Op == "fail" {
			j.verdict = time.Now()
			j.terminal = rec
			return j
		}
	}
	j.err = fmt.Errorf("event stream ended before a verdict: %v", sc.Err())
	return j
}

// check verifies a job reached done with the console a correct run of
// its corpus prints.
func (j *jobSample) check(seed int64) error {
	if j.err != nil {
		return j.err
	}
	res := j.terminal.Result
	if j.terminal.Op != "done" || res == nil {
		return fmt.Errorf("job %s ended %s: %s %s", j.id, j.terminal.Op, j.terminal.Kind, j.terminal.Message)
	}
	cs := smallCorpus(seed + int64(j.index))
	_, newData := cs.Generate()
	if want := fmt.Sprintf("rsync ok  %016x\n", cs.ExpectedChecksum(newData)); res.Console != want {
		return fmt.Errorf("job %s: console %q, want %q", j.id, res.Console, want)
	}
	return nil
}

func runServe(o options, rep *report) error {
	clock := newHostClock()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Set-up: daemon (job store opened, worker pool started), listener,
	// and warm-up jobs through the whole path. Every set-up warms with
	// the same jobs, seed+0 .. seed+warmJobs-1; their results are also
	// the golden fingerprint. The last service stays up for the window.
	var svc *service
	defer func() {
		if svc != nil {
			svc.stop() // an error is already on its way out
		}
	}()
	var setupHost []float64
	var warm []jobSample
	for i := 0; i < serveSetups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
			svc = nil
		}
		st := clock.now()
		var err error
		if svc, err = startService(filepath.Join(base, strconv.Itoa(i))); err != nil {
			return err
		}
		warm = warm[:0]
		for k := 0; k < warmJobs; k++ {
			j := svc.runJob(o.seed, k)
			if err := j.check(o.seed); err != nil {
				return fmt.Errorf("warm-up job %d: %w", k, err)
			}
			warm = append(warm, j)
		}
		setupHost = append(setupHost, clock.since(st).host)
	}
	var fp fingerprint
	consoles := ""
	for i := range warm {
		res := warm[i].terminal.Result
		fp.Cycles += res.Cycles
		fp.Insns += res.Insns
		consoles += res.Console
	}
	fp.ConsoleFNV = fnv32(consoles)

	// The window: one closed-loop client.
	var samples []jobSample
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := clock.now()
	deadline := st.t.Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; o.maxReps == 0 || n < o.maxReps; n++ {
		if n >= o.minReps && !time.Now().Before(deadline) {
			break
		}
		samples = append(samples, svc.runJob(o.seed, warmJobs+n))
	}
	window := clock.since(st)
	runtime.ReadMemStats(&after)

	// Per-job facts the daemon recorded, read after the window so the
	// reads do not load the service while it is measured.
	var latency, submit, queue, run, collect []float64
	var cycles, insns float64
	for i := range samples {
		j := &samples[i]
		rep.attempted++
		if err := j.check(o.seed); err != nil {
			rep.fail("%v", err)
			continue
		}
		cycles += float64(j.terminal.Result.Cycles)
		insns += float64(j.terminal.Result.Insns)
		latency = append(latency, j.latencyMs())
		submit = append(submit, msBetween(j.sent, j.accepted))
		status, ok := svc.d.Job(j.id)
		if !ok {
			continue
		}
		queue = append(queue, float64(status.QueueWaitMs))
		submitted, err0 := time.Parse(time.RFC3339Nano, status.SubmittedAt)
		started, err1 := time.Parse(time.RFC3339Nano, status.StartedAt)
		finished, err2 := time.Parse(time.RFC3339Nano, status.FinishedAt)
		if err0 != nil || err1 != nil || err2 != nil {
			continue
		}
		run = append(run, msBetween(started, finished))
		collect = append(collect, msBetween(finished, j.verdict))
		if tr != nil {
			trace := "job-" + j.id
			root := tr.record(trace, "job", 0, j.sent, j.verdict, map[string]float64{
				"cycles": float64(j.terminal.Result.Cycles), "insns": float64(j.terminal.Result.Insns)})
			tr.record(trace, "jobd.submit", root, j.sent, j.accepted, nil)
			tr.record(trace, "jobd.queue", root, submitted, started, nil)
			tr.record(trace, "jobd.run", root, started, finished, nil)
			tr.record(trace, "jobd.verdict", root, finished, j.verdict, nil)
		}
	}
	if err := checkGolden(o, rep.workload, fp); err != nil {
		rep.failed = rep.attempted
		rep.failures = append(rep.failures, err.Error())
	}
	done := float64(len(latency))
	if done == 0 {
		return fmt.Errorf("no job reached done (first failures: %v)", rep.failures)
	}

	// The K8 reference for the first warm-up job's guest. A worker
	// reports total cycles only; the cycles its guest slept are the
	// reference run's, the same guest on the same engine.
	small := guestDef{mode: core.ModeNative, build: rsyncGuest(smallCorpus(0))}
	ref, err := small.k8Reference(o.seed)
	if err != nil {
		return fmt.Errorf("K8 reference run: %w", err)
	}
	workerBusy := float64(warm[0].terminal.Result.Cycles) - ref.idle

	rep.set("setup_s", estMedian(setupHost))
	rep.set("busy_cycles_per_s", cycles/window.host)
	rep.set("insns_per_s", insns/window.host)
	rep.set("alloc_bytes_per_insn", float64(after.TotalAlloc-before.TotalAlloc)/insns)
	rep.set("allocs_per_kinsn", 1000*float64(after.Mallocs-before.Mallocs)/insns)
	rep.set("k8_cycles_err_pct", ref.cyclesErrPct(workerBusy))
	rep.set("jobs_per_s", done/window.host)
	rep.set("verdict_p50_ms", estMedian(latency))
	rep.set("verdict_p95_ms", quantile(latency, 0.95))

	rep.note("1 client, 1 worker, %.0f jobs done in %.2fs; fingerprint cycles=%d insns=%d console_fnv32=%d stats_fnv32=0",
		done, window.wall, fp.Cycles, fp.Insns, fp.ConsoleFNV)
	rep.set("host.steal_frac", window.stealFrac())
	rep.set("host.steal_supported", b2f(clock.supported))
	rep.set("host.rep_iqr_over_median", iqrOverMedian(latency))
	rep.set("host.gc_cycles", float64(after.NumGC-before.NumGC))
	rep.set("host.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	rep.set("host.setup_iqr_over_median", iqrOverMedian(setupHost))
	rep.set("host.verdict_samples", done)
	rep.set("k8.total_cycles_err_pct", ref.totalCyclesErrPct(float64(warm[0].terminal.Result.Cycles)))

	if tr != nil {
		rep.set("jobd.submit_ms_p50", estMedian(submit))
		rep.set("jobd.queue_wait_ms_p50", estMedian(queue))
		rep.set("jobd.run_ms_p50", estMedian(run))
		rep.set("jobd.verdict_collect_ms_p50", estMedian(collect))
		var expose bytes.Buffer
		rep.set("metrics.expose_us", nsPerOp(64, func(int) {
			expose.Reset()
			svc.d.Metrics().WritePrometheus(&expose)
		})/1e3)
	}
	stopping := svc
	svc = nil
	if err := stopping.stop(); err != nil {
		return err
	}
	rep.set("peak_rss_mb", peakRSSMiB())
	if tr == nil {
		return nil
	}

	// Workers have all been waited for, so RUSAGE_CHILDREN holds the
	// largest of them.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err == nil {
		rep.set("jobd.worker_peak_rss_mb", float64(ru.Maxrss)/1024)
	}
	if err := storeAppendDrive(rep, filepath.Join(base, "append")); err != nil {
		return err
	}

	// The same job in this process, without the service around it: what
	// is left of jobd.run_ms_p50 after it is the cost of isolation
	// (process spawn, spec and result files, checkpoint store,
	// heartbeat) — jobd.nonsim_ms_p50.
	var inproc []float64
	var last *booted
	for i := 0; i < 5; i++ {
		r, b, err := small.repetition(o.seed, clock, nil, i, false)
		if err != nil {
			return fmt.Errorf("in-process job: %w", err)
		}
		inproc, last = append(inproc, 1000*r.reg.host), b
	}
	rep.set("jobd.nonsim_ms_p50", estMedian(run)-estMedian(inproc))
	seqLayer(rep, last.m.Tree, estMedian(inproc)/1000)
	rep.set("core.new_machine_ms", last.machineMs)
	rep.set("kern.build_ms", last.kernMs)
	return finishTraced(o, rep, tr, last)
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// storeAppendDrive times JobStore.Append — one fsync'd WAL record, the
// unit every job state transition costs the daemon.
func storeAppendDrive(rep *report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	store, err := jobd.OpenJobStore(dir, 1<<30)
	if err != nil {
		return err
	}
	spec := jobd.Spec{Scale: "small", Mode: "native"}
	var appendErr error
	us := nsPerOp(32, func(i int) {
		if _, err := store.Append(jobd.Record{Op: "accept", Job: strconv.Itoa(i), Spec: &spec}); err != nil {
			appendErr = err
		}
	}) / 1e3
	if err := store.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	rep.set("jobd.store_append_us", us)
	return nil
}
