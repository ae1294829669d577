// Command benchmark is the repository's scoreboard: one program that
// runs four workloads against the simulator and its job service,
// verifies every output, and prints each metric by name with its unit.
// It measures every layer from the outside — the public stats tree and
// timed calls into public functions — and lives entirely in this
// directory. README.md documents the metrics, the workloads and how to
// read a trace; NOISE.md records why the timed numbers can be trusted
// on a shared 2-vCPU host.
//
//	bash benchmark/run.sh                          # all four workloads
//	bash benchmark/run.sh --workload rsync_ooo     # one workload
//	bash benchmark/run.sh --workload serve_closed --seed 7 --seconds 30 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"ptlsim/internal/jobd"
)

const (
	// defaultSeed is the seed golden.json holds fingerprints for.
	defaultSeed = 20070425
	// defaultSeconds is the measuring window of one run; BENCHMARK.json
	// passes the same value as run_seconds.
	defaultSeconds = 30

	// childEnv marks the re-exec'd process that runs exactly one
	// workload, so peak RSS and allocation deltas are per workload.
	childEnv = "PTLBENCH_CHILD"
	// workerEnv carries a job directory to a re-exec'd jobd worker.
	workerEnv = "PTLBENCH_WORKER_DIR"
)

// options are one run's settings. The flags set the first five; the
// rest only the smoke tests change.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	minReps int // timed repetitions (jobs, for serve_closed) run even past the deadline
	maxReps int // 0 = until the deadline
	golden  []byte
}

func defaultOptions() options {
	return options{
		seed: defaultSeed, seconds: defaultSeconds, outDir: "benchmark/out",
		minReps: 3, golden: goldenJSON,
	}
}

func main() {
	if dir := os.Getenv(workerEnv); dir != "" {
		os.Exit(jobd.WorkerMain(dir, os.Stderr))
	}
	o := defaultOptions()
	trace := 0
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
	flag.Int64Var(&o.seed, "seed", o.seed, "workload seed; every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "measuring window per workload in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer table and span file instead of end-to-end metrics")
	flag.StringVar(&o.outDir, "out", o.outDir, "directory for span files and scratch data")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n",
			o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(o, os.Stdout))
	}
	os.Exit(parentMain(o))
}

// parentMain fixes the settings every child runs under, prints them,
// and runs each requested workload in its own child process.
//
// Every child, and every worker a child starts, runs on one CPU with
// GOMAXPROCS=1. The simulator is one thread; on one P the collector's
// work is charged to the thread being timed instead of hiding on a
// second vCPU, and pinned to one CPU nothing waits for the hypervisor to
// schedule another. Both were measured as the largest sources of
// run-to-run noise on a shared 2-vCPU host (NOISE.md).
func parentMain(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The children are started from this thread and inherit its affinity.
	runtime.LockOSThread()
	pinned := "not pinned"
	cpus, err := allowedCPUs()
	if err == nil {
		// The highest-numbered CPU: interrupts favour the lowest.
		cpu := cpus[len(cpus)-1]
		if err = pinThread(cpu); err == nil {
			pinned = "pinned to CPU " + strconv.Itoa(cpu)
		}
	}
	if err != nil {
		pinned += " (" + err.Error() + ")"
	}
	fmt.Printf("# %s, nproc %d, %s, GOMAXPROCS 1, GOGC 100, seed %d, %gs per workload, trace %v\n",
		runtime.Version(), runtime.NumCPU(), pinned, o.seed, o.seconds, o.trace)

	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	code := 0
	for _, name := range names {
		cmd := exec.Command(self,
			"--workload", name,
			"--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"--trace", map[bool]string{false: "0", true: "1"}[o.trace],
			"--out", o.outDir)
		cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=1", "GOGC=100")
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// childMain runs one workload and prints its report: the metric table
// for people, then the one-line JSON result the driver reads.
func childMain(o options, out io.Writer) int {
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	rep.print(out, o.trace)
	if !rep.correct() {
		return 1
	}
	return 0
}

// report is what one workload run produced.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string // first few reasons, for the table
	values    map[string]float64
	notes     []string // diagnostics printed above the table
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records a metric; a ratio over an empty layer (0/0) reads 0.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// print writes the table of every metric the run mode owes (end-to-end
// metrics untraced, per-layer metrics traced; a metric the workload
// does not exercise reads 0) and the JSON result as the last line.
func (r *report) print(out io.Writer, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "\n== %s (%s)\n", r.workload, map[bool]string{false: "end to end", true: "traced, per layer"}[traced])
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	// Values that are not contract metrics of this mode (host.* and the
	// service's own metrics in an untraced run) are printed first, sorted.
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
	}
	var extra []string
	for name := range r.values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(out, "  ~ %-34s %18.6g\n", name, r.values[name])
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		v := r.values[d.name]
		fmt.Fprintf(out, "  %-36s %18.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(out, "  %-36s %18d\n  %-36s %18d\n", "ops_attempted", r.attempted, "ops_failed", r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(out, "%s\n", line)
}
