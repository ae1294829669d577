package main

import (
	"math"
	"testing"
	"time"
)

// /proc/stat as three kernels print it: with the steal column (and the
// guest columns after it), without it (pre-2.6.11 layout), and with a
// per-cpu line before the aggregate one to make sure only the line
// asked for counts.
const (
	statWithSteal = `cpu  2680103 0 385478 2754693 39763 0 81237 79248 0 0
cpu0 1329483 0 197840 1381208 23308 0 35651 39666 0 0
cpu1 1350619 0 187637 1373484 16454 0 45585 39582 0 0
intr 12345
ctxt 67890
`
	statNoSteal = `cpu  2680103 0 385478 2754693 39763 0 81237
cpu0 1329483 0 197840 1381208 23308 0 35651
`
	statPerCPUFirst = `cpu0 1 2 3 4 5 6 7 8 9 10
cpu  10 20 30 40 50 60 70 80 90 100
`
)

func TestParseSteal(t *testing.T) {
	cases := []struct {
		name  string
		stat  string
		label string
		ticks uint64
		ok    bool
	}{
		{"steal present", statWithSteal, "cpu", 79248, true},
		{"one CPU's steal", statWithSteal, "cpu1", 39582, true},
		{"a CPU the host lacks", statWithSteal, "cpu2", 0, false},
		{"steal absent", statNoSteal, "cpu", 0, false},
		{"aggregate line only", statPerCPUFirst, "cpu", 80, true},
		{"no cpu line", "intr 1 2 3\n", "cpu", 0, false},
		{"empty", "", "cpu", 0, false},
		{"garbage steal", "cpu 1 2 3 4 5 6 7 x 9\n", "cpu", 0, false},
	}
	for _, c := range cases {
		ticks, ok := parseSteal([]byte(c.stat), c.label)
		if ticks != c.ticks || ok != c.ok {
			t.Errorf("%s: parseSteal = (%d, %v), want (%d, %v)", c.name, ticks, ok, c.ticks, c.ok)
		}
	}
}

func TestStealDelta(t *testing.T) {
	cases := []struct {
		name          string
		before, after uint64
		want          uint64
	}{
		{"advance", 100, 175, 75},
		{"no change", 100, 100, 0},
		{"32-bit wrap", math.MaxUint32 - 9, 15, 25},
		{"64-bit wrap", math.MaxUint64 - 9, 15, 25},
	}
	for _, c := range cases {
		if got := stealDelta(c.before, c.after); got != c.want {
			t.Errorf("%s: stealDelta(%d, %d) = %d, want %d", c.name, c.before, c.after, got, c.want)
		}
	}
}

// TestHostSecondsBounds: corrected time never leaves [0, wall].
func TestHostSecondsBounds(t *testing.T) {
	cases := []struct {
		wall  time.Duration
		ticks uint64
		want  float64
	}{
		{2 * time.Second, 0, 2},
		{2 * time.Second, 50, 1.5},
		{2 * time.Second, 200, 0},  // all of it stolen
		{2 * time.Second, 1000, 0}, // both vCPUs stolen: aggregate exceeds wall
		{0, 10, 0},
	}
	for _, c := range cases {
		got := hostSeconds(c.wall, c.ticks)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("hostSeconds(%v, %d) = %g, want %g", c.wall, c.ticks, got, c.want)
		}
		if got < 0 || got > c.wall.Seconds() {
			t.Errorf("hostSeconds(%v, %d) = %g outside [0, wall]", c.wall, c.ticks, got)
		}
	}
}

// TestHostClockFixture drives the clock through fixture readings: a
// region during which the steal counter advanced by 30 ticks.
func TestHostClockFixture(t *testing.T) {
	readings := []string{
		statWithSteal, // probe in the constructor stand-in below
		"cpu 1 2 3 4 5 6 7 1000 0 0\n",
		"cpu 1 2 3 4 5 6 7 1030 0 0\n",
	}
	i := 0
	c := &hostClock{label: "cpu", read: func() ([]byte, error) {
		r := readings[i]
		if i < len(readings)-1 {
			i++
		}
		return []byte(r), nil
	}}
	data, _ := c.read()
	_, c.supported = parseSteal(data, c.label)
	if !c.supported {
		t.Fatal("steal column not detected")
	}
	start := c.now()
	start.t = start.t.Add(-time.Second) // a region one second long
	r := c.since(start)
	if math.Abs(r.steal-0.30) > 0.01 || math.Abs(r.host-(r.wall-0.30)) > 1e-9 {
		t.Fatalf("region = %+v, want 0.30 s stolen", r)
	}
	if f := r.stealFrac(); f < 0.25 || f > 0.31 {
		t.Fatalf("stealFrac = %g, want about 0.3", f)
	}

	// Without the column the correction is zero.
	c = &hostClock{label: "cpu", read: func() ([]byte, error) { return []byte(statNoSteal), nil }}
	start = c.now()
	start.t = start.t.Add(-time.Second)
	if r := c.since(start); r.steal != 0 || r.host != r.wall {
		t.Fatalf("unsupported clock corrected anyway: %+v", r)
	}
}

func TestEstimate(t *testing.T) {
	p95 := func(xs []float64) float64 { return quantile(xs, 0.95) }
	cases := []struct {
		name string
		f    func([]float64) float64
		xs   []float64
		want float64
	}{
		// Eleven repetitions: nine in the host's usual state, one caught
		// in a slow spell and one in a fast one. Neither moves the figure.
		{"both tails", estimate, []float64{2.31, 2.30, 2.35, 2.29, 3.90, 2.33, 2.32, 2.30, 2.34, 1.85, 2.31}, 2.31},
		{"even count", estimate, []float64{1, 3}, 2},
		{"one repetition", estimate, []float64{7}, 7},
		{"no repetition", estimate, nil, 0},
		{"p95", p95, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 10.5},
		{"spread", iqrOverMedian, []float64{1, 2, 3, 4, 5}, 2.0 / 3},
		{"spread of nothing", iqrOverMedian, nil, 0},
	}
	for _, c := range cases {
		if got := c.f(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
}
