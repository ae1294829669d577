// Command aa reads the results of an A/A experiment — two sets of runs
// of one tree, written by benchmark/aa.sh as <dir>/set<k>-<workload>-<i>.txt
// — and prints, for every end-to-end metric on every workload, each
// set's median and spread and the gap between the two medians against
// the metric's bound in BENCHMARK.json. Spread is the interquartile
// range over the median with the quartiles of Python's
// statistics.quantiles(n=4), as the benchmark's driver computes it. The
// driver accepts a spread up to the bound and a second median worse than
// the first by up to the bound. aa exits non-zero when a spread passes
// its bound or a gap, in either direction, passes half of it, and marks
// every spread above a third of its bound.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// result is the last stdout line of one benchmark run.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

var fileRE = regexp.MustCompile(`^set(\d+)-(.+)-(\d+)\.txt$`)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: aa <BENCHMARK.json> <results-dir>")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "aa:", err)
		os.Exit(1)
	}
}

func run(benchmarkJSONPath, dir string) error {
	data, err := os.ReadFile(benchmarkJSONPath)
	if err != nil {
		return err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	// values[set][workload][metric] = one value per run.
	values := map[int]map[string]map[string][]float64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		m := fileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		set, _ := strconv.Atoi(m[1])
		workload := m[2]
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", e.Name(), err)
		}
		if !res.Correct {
			return fmt.Errorf("%s: run was not correct", e.Name())
		}
		if values[set] == nil {
			values[set] = map[string]map[string][]float64{}
		}
		if values[set][workload] == nil {
			values[set][workload] = map[string][]float64{}
		}
		into := values[set][workload]
		for name, mv := range res.Metrics {
			into[name] = append(into[name], mv.Value)
		}
	}
	if len(values[1]) == 0 || len(values[2]) == 0 {
		return fmt.Errorf("%s: need result files of set 1 and set 2", dir)
	}

	bad := 0
	fmt.Println("| workload | metric | bound | set 1 median | set 2 median | gap | spread 1 | spread 2 | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range bj.Workloads {
		for _, spec := range bj.EndToEnd {
			a, b := values[1][w.Name][spec.Name], values[2][w.Name][spec.Name]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("no values of %s on %s", spec.Name, w.Name)
			}
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma // positive = second set larger
			worse := gap
			if spec.Better == "higher" {
				worse = -gap
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case math.Abs(gap) > spec.Bound/2:
				verdict = "GAP ABOVE HALF THE BOUND"
				bad++
			case math.Max(sa, sb) > spec.Bound:
				verdict = "SPREAD ABOVE THE BOUND"
				bad++
			case math.Max(sa, sb) > spec.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("| %s | %s | %.3f | %.6g | %.6g | %+.4f (worse by %+.4f) | %.4f | %.4f | %s |\n",
				w.Name, spec.Name, spec.Bound, ma, mb, gap, worse, sa, sb, verdict)
		}
	}

	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs outside their limits", bad)
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(xs, n=4), its default "exclusive" method.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return 0
	}
	quart := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return (quart(3) - quart(1)) / median(xs)
}
