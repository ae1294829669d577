package stats

import (
	"fmt"
	"io"
	"strings"
)

// Series is an ordered sequence of snapshots taken at regular cycle
// intervals, the raw material behind the paper's time-lapse plots
// (Figures 2 and 3, one snapshot per 2.2M cycles).
type Series struct {
	Interval  uint64
	Snapshots []Snapshot
}

// Collector periodically snapshots a Tree as simulation advances.
type Collector struct {
	tree     *Tree
	interval uint64
	next     uint64
	series   Series
}

// NewCollector returns a collector that snapshots tree every interval
// cycles, beginning at cycle interval (cycle 0 state is implicit).
func NewCollector(tree *Tree, interval uint64) *Collector {
	if interval == 0 {
		interval = 1
	}
	return &Collector{
		tree:     tree,
		interval: interval,
		next:     interval,
		series:   Series{Interval: interval},
	}
}

// Tick informs the collector that simulation has reached cycle; it takes
// any snapshots that have become due. Safe to call with non-consecutive
// cycles (the simulator may advance several cycles between calls).
func (c *Collector) Tick(cycle uint64) {
	for cycle >= c.next {
		c.series.Snapshots = append(c.series.Snapshots, c.tree.Snapshot(c.next))
		c.next += c.interval
	}
}

// Next returns the cycle of the next periodic snapshot: a caller that
// advances many cycles in one Tick stops there if the snapshot labelled
// N is to hold exactly the counters of cycle N.
func (c *Collector) Next() uint64 { return c.next }

// Finish takes a final snapshot at cycle (if beyond the last periodic
// one) and returns the accumulated series.
func (c *Collector) Finish(cycle uint64) Series {
	if n := len(c.series.Snapshots); n == 0 || c.series.Snapshots[n-1].Cycle < cycle {
		c.series.Snapshots = append(c.series.Snapshots, c.tree.Snapshot(cycle))
	}
	return c.series
}

// Deltas converts the cumulative series into per-interval deltas, so
// each returned snapshot holds the events that occurred within its
// interval only. The first interval is measured from zero.
func (s Series) Deltas() []Snapshot {
	out := make([]Snapshot, len(s.Snapshots))
	prev := Snapshot{Values: map[string]int64{}}
	for i, snap := range s.Snapshots {
		d := Sub(snap, prev)
		d.Cycle = snap.Cycle
		out[i] = d
		prev = snap
	}
	return out
}

// Column describes one output column of a rendered series: a display
// name and a function deriving the column value from an interval delta.
type Column struct {
	Name  string
	Value func(Snapshot) float64
}

// Rate returns a Column computing 100*num/den from interval deltas, the
// shape of every curve in Figures 2 and 3 (e.g. mispredicted branches as
// a percentage of all conditional branches per snapshot interval).
func Rate(name, num, den string) Column {
	return Column{Name: name, Value: func(d Snapshot) float64 {
		n, m := d.Get(num), d.Get(den)
		if m == 0 {
			return 0
		}
		return 100 * float64(n) / float64(m)
	}}
}

// WriteSeries renders per-interval values of the given columns as a
// text table: one row per snapshot, first column the snapshot ID.
func (s Series) WriteSeries(w io.Writer, cols ...Column) error {
	deltas := s.Deltas()
	hdr := make([]string, 0, len(cols)+2)
	hdr = append(hdr, fmt.Sprintf("%8s", "snapshot"), fmt.Sprintf("%12s", "cycle"))
	for _, c := range cols {
		hdr = append(hdr, fmt.Sprintf("%12s", c.Name))
	}
	if _, err := fmt.Fprintln(w, strings.Join(hdr, " ")); err != nil {
		return err
	}
	for i, d := range deltas {
		row := make([]string, 0, len(cols)+2)
		row = append(row, fmt.Sprintf("%8d", i), fmt.Sprintf("%12d", d.Cycle))
		for _, c := range cols {
			row = append(row, fmt.Sprintf("%12.3f", c.Value(d)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, " ")); err != nil {
			return err
		}
	}
	return nil
}
