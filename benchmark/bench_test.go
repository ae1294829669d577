package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptlsim/internal/jobd"
)

// TestMain lets the serve_closed smoke test re-exec this test binary as
// a jobd worker, the way main does for the real benchmark.
func TestMain(m *testing.M) {
	if dir := os.Getenv(workerEnv); dir != "" {
		os.Exit(jobd.WorkerMain(dir, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeOptions shrinks the protocol to one repetition (or three jobs)
// and no window, on the default seed so golden.json is checked too.
func smokeOptions(t *testing.T, workload string) options {
	o := defaultOptions()
	o.workload = workload
	o.seconds = 0
	o.outDir = t.TempDir()
	o.minReps, o.maxReps = 1, 1
	if workload == "serve_closed" {
		o.minReps, o.maxReps = 3, 3
	}
	return o
}

// TestSmoke runs every workload once, end to end: it keeps the harness
// compiling against internal/ API drift and checks that each workload
// verifies, matches its golden fingerprint, and reports every
// end-to-end metric as a positive number.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four guests and a job service")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := runWorkload(smokeOptions(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
			}
			for _, d := range endToEnd {
				if v := rep.values[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

// tracedPositive lists, per workload, layer metrics a traced run must
// report as positive: one or two from every source the table draws on.
var tracedPositive = map[string][]string{
	"memwalk_ooo": {
		"ooo.host_ns_per_busy_cycle", "ooo.ipc", "cache.l1d_miss_ratio", "tlb.dtlb_miss_per_kinsn",
		"bbcache.hit_ratio", "core.stats_fnv32", "hv.console_fnv32", "k8.uops_err_pct",
		"decode.build_bb_ns_per_insn", "bbcache.lookup_hit_ns", "tlb.lookup_hit_ns", "mem.walk_ns",
		"cache.load_miss_ns", "cache.store_ns", "bpred.predict_update_ns", "uops.exec_ns",
		"vm.read_virt_ns", "snapshot.capture_ms", "supervisor.store_save_ms", "kern.build_ms",
	},
	"serve_closed": {
		"jobs_per_s", "verdict_p50_ms", "verdict_p95_ms",
		"seqcore.host_ns_per_insn", "jobd.submit_ms_p50", "jobd.run_ms_p50",
		"jobd.verdict_collect_ms_p50", "jobd.nonsim_ms_p50", "jobd.store_append_us",
		"jobd.worker_peak_rss_mb", "metrics.expose_us", "snapshot.restore_ms", "mem.read_ns",
	},
}

// TestTracedSmoke runs the two cheapest workloads traced: the per-layer
// table must be complete, the span file must parse, and the traced
// repetition must reproduce the untraced fingerprint (the golden check
// and the repetition-equality check both run).
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a guest and a job service")
	}
	for _, name := range []string{"memwalk_ooo", "serve_closed"} {
		t.Run(name, func(t *testing.T) {
			o := smokeOptions(t, name)
			o.trace = true
			if name != "serve_closed" {
				o.minReps, o.maxReps = 2, 2 // one untraced, one traced
			}
			rep, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
			}
			for _, m := range tracedPositive[name] {
				if v := rep.values[m]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
			data, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte{'\n'})
			names := map[string]bool{}
			for _, line := range lines {
				var s span
				if err := json.Unmarshal(line, &s); err != nil {
					t.Fatalf("span %q: %v", line, err)
				}
				if s.End < s.Start || s.ID == 0 || s.Parent >= s.ID {
					t.Fatalf("malformed span %+v", s)
				}
				names[s.Name] = true
			}
			want := []string{"snapshot.Capture", "supervisor.Store.Save"}
			if name == "serve_closed" {
				want = append(want, "jobd.submit", "jobd.queue", "jobd.run", "jobd.verdict")
			} else {
				want = append(want, "kern.Build", "core.NewMachine", "core.Machine.RunUntilCycle")
			}
			for _, w := range want {
				if !names[w] {
					t.Errorf("no %s span among %d spans", w, len(lines))
				}
			}
		})
	}
}

// TestCorruptGoldenFails: a simulated outcome that differs from
// golden.json must fail every operation, mark the JSON result
// incorrect and make the child exit non-zero.
func TestCorruptGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a guest")
	}
	o := smokeOptions(t, "memwalk_ooo")
	var golden map[string]fingerprint
	if err := json.Unmarshal(o.golden, &golden); err != nil {
		t.Fatal(err)
	}
	fp := golden["memwalk_ooo"]
	fp.Cycles++
	golden["memwalk_ooo"] = fp
	var err error
	if o.golden, err = json.Marshal(golden); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := childMain(o, &out); code == 0 {
		t.Errorf("childMain = 0 with a corrupted golden value:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if res.Correct || res.Attempted != 1 || res.Failed != 1 {
		t.Errorf("result %+v, want 1 attempted, 1 failed, incorrect", res)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the driver's view of
// this benchmark, in step with the metric and workload tables here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bj.Command, " "); got != "bash benchmark/run.sh" {
		t.Errorf("command %q", got)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, want defaultSeconds %v", bj.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) in metrics.go",
					kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, got[i].Name, got[i].Better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
