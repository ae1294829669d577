// Command ptlstats analyzes statistics written by ptlsim -stats-out:
// it renders counter tables, subtracts snapshots to isolate intervals
// (the warmup-stripping workflow of the paper's §2.3), and prints the
// time-lapse series behind Figures 2 and 3.
//
// Examples:
//
//	ptlstats -in run.json -table core0.
//	ptlstats -in run.json -subtract 3,10 -table core0.cache
//	ptlstats -in run.json -series mode
//	ptlstats -in run.json -series uarch
//	ptlstats -pipeline run.evlog -format chrome -o trace.json
//	ptlstats -pipeline run.evlog -format konata -o run.kanata
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ptlsim/internal/evlog"
	"ptlsim/internal/experiments"
	"ptlsim/internal/stats"
)

type statsFile struct {
	Cycles    uint64          `json:"cycles"`
	Final     map[string]int64 `json:"final"`
	Interval  uint64          `json:"interval"`
	Snapshots []statsSnapshot `json:"snapshots"`
}

type statsSnapshot struct {
	Cycle  uint64           `json:"cycle"`
	Values map[string]int64 `json:"values"`
}

func main() {
	var (
		in       = flag.String("in", "", "stats JSON written by ptlsim -stats-out")
		table    = flag.String("table", "", "print final counters matching this prefix")
		subtract = flag.String("subtract", "", "snapshot pair \"a,b\": print counters for the interval (b - a)")
		series   = flag.String("series", "", "print a time-lapse series: mode (Figure 2) | uarch (Figure 3)")
		pipeline = flag.String("pipeline", "", "render a pipeline event log (ptlsim -evlog JSONL) and exit")
		format   = flag.String("format", "chrome", "with -pipeline: chrome (trace_event JSON) | konata (Kanata text) | text")
		out      = flag.String("o", "", "with -pipeline: write output here instead of stdout")
	)
	flag.Parse()
	if *pipeline != "" {
		if err := renderPipeline(*pipeline, *format, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "ptlstats: -in is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	var sf statsFile
	if err := json.Unmarshal(data, &sf); err != nil {
		fatal(err)
	}

	ser := stats.Series{Interval: sf.Interval}
	for _, s := range sf.Snapshots {
		ser.Snapshots = append(ser.Snapshots, stats.Snapshot{Cycle: s.Cycle, Values: s.Values})
	}

	switch {
	case *subtract != "":
		parts := strings.Split(*subtract, ",")
		if len(parts) != 2 {
			fatal(fmt.Errorf("-subtract wants \"a,b\" snapshot ids"))
		}
		a, err1 := strconv.Atoi(parts[0])
		b, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || a < 0 || b <= a || b >= len(ser.Snapshots) {
			fatal(fmt.Errorf("bad snapshot ids %q (have %d snapshots)", *subtract, len(ser.Snapshots)))
		}
		d := stats.Sub(ser.Snapshots[b], ser.Snapshots[a])
		fmt.Printf("interval: snapshots %d..%d (%d cycles)\n", a, b, d.Cycle)
		if err := d.WriteTable(os.Stdout, prefixes(*table)...); err != nil {
			fatal(err)
		}
	case *series != "":
		var cols []stats.Column
		switch *series {
		case "mode", "cycles_in_mode":
			cols = experiments.Figure2Columns()
		case "uarch":
			cols = experiments.Figure3Columns()
		default:
			fatal(fmt.Errorf("unknown series %q (want mode or uarch)", *series))
		}
		if err := ser.WriteSeries(os.Stdout, cols...); err != nil {
			fatal(err)
		}
	default:
		final := stats.Snapshot{Cycle: sf.Cycles, Values: sf.Final}
		if err := final.WriteTable(os.Stdout, prefixes(*table)...); err != nil {
			fatal(err)
		}
	}
}

// renderPipeline loads a ptlsim -evlog JSONL file and renders it as a
// Chrome trace_event JSON array (chrome://tracing / Perfetto), Kanata
// pipeline-viewer text, or the plain fixed-width event table.
func renderPipeline(path, format, outPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	events, err := evlog.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if outPath != "" {
		of, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	switch format {
	case "chrome":
		return evlog.WriteChromeTrace(w, events)
	case "konata":
		return evlog.WriteKonata(w, events)
	case "text":
		return evlog.WriteText(w, events)
	default:
		return fmt.Errorf("unknown -format %q (want chrome, konata or text)", format)
	}
}

func prefixes(p string) []string {
	if p == "" {
		return nil
	}
	return strings.Split(p, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptlstats:", err)
	os.Exit(1)
}
