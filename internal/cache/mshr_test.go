package cache

import (
	"testing"

	"ptlsim/internal/stats"
)

// steadyMSHRs brings h's miss buffers to a steady state of live
// outstanding lines with staggered completion times (one completes per
// cycle) and returns the next cycle and the fill latency that keeps it
// there: every later mshrAlloc(new line, now, fill) with now advancing
// by one retires one entry and adds one. The entries are created through
// mshrAlloc alone, with the occupancy limit lifted while they are, so
// the helper does not depend on how the buffers are stored.
func steadyMSHRs(h *Hierarchy, live int) (now, fill uint64) {
	limit := h.cfg.MSHRs
	h.cfg.MSHRs = live + 1
	fill = uint64(live)
	for ; now < uint64(live); now++ {
		h.mshrAlloc(now<<6, now, fill)
	}
	h.cfg.MSHRs = limit
	return now, fill
}

// BenchmarkMSHRAlloc times one miss-buffer allocation for a new line
// with the K8 hierarchy's eight buffers, at the two occupancies the
// memwalk_ooo guest produces: within the limit (the pointer chase: a
// handful of lines outstanding) and far over it (the store sweep:
// committed stores never wait for a buffer, so some 250 lines are
// outstanding, each request starting when the earliest of them
// completes).
func BenchmarkMSHRAlloc(b *testing.B) {
	for _, tc := range []struct {
		name string
		live int
	}{{"within-occupancy", 8}, {"over-occupancy", 250}} {
		b.Run(tc.name, func(b *testing.B) {
			h := NewHierarchy(K8Hierarchy(), stats.NewTree(), "c")
			now, fill := steadyMSHRs(h, tc.live)
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				ready, _ := h.mshrAlloc(now<<6, now, fill)
				sink += ready
				now++
			}
			_ = sink
		})
	}
}
