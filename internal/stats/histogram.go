package stats

import (
	"fmt"
	"io"
)

// Histogram is a fixed-bucket distribution statistic (e.g. issue-queue
// occupancy or store-forward distance). Values beyond the last bucket
// accumulate in an overflow bucket.
type Histogram struct {
	name    string
	bucketW int64
	buckets []int64
	over    int64
	total   int64
	sum     int64
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(name string, n int, width int64) *Histogram {
	if n <= 0 {
		n = 1
	}
	if width <= 0 {
		width = 1
	}
	return &Histogram{name: name, bucketW: width, buckets: make([]int64, n)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.total++
	h.sum += v
	if v < 0 {
		v = 0
	}
	idx := v / h.bucketW
	if idx >= int64(len(h.buckets)) {
		h.over++
		return
	}
	h.buckets[idx]++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the arithmetic mean of recorded samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Bucket returns the count in bucket i (and the overflow bucket count
// for i == len).
func (h *Histogram) Bucket(i int) int64 {
	if i == len(h.buckets) {
		return h.over
	}
	return h.buckets[i]
}

// WriteTo renders the histogram as a text table with percentages.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	var n int64
	k, err := fmt.Fprintf(w, "%s: %d samples, mean %.2f\n", h.name, h.total, h.Mean())
	n += int64(k)
	if err != nil {
		return n, err
	}
	for i, b := range h.buckets {
		pct := 0.0
		if h.total > 0 {
			pct = 100 * float64(b) / float64(h.total)
		}
		k, err = fmt.Fprintf(w, "  [%6d,%6d) %10d %6.2f%%\n", int64(i)*h.bucketW, int64(i+1)*h.bucketW, b, pct)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	if h.over > 0 {
		pct := 100 * float64(h.over) / float64(h.total)
		k, err = fmt.Fprintf(w, "  [%6d,   inf) %10d %6.2f%%\n", int64(len(h.buckets))*h.bucketW, h.over, pct)
		n += int64(k)
	}
	return n, err
}
