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

// TestMSHRAllocDoesNotAllocate: at the store sweep's occupancy the miss
// buffers are within what the hierarchy was built with, so an
// allocation, the retirement it triggers and an L1-hit probe touch no
// heap memory.
func TestMSHRAllocDoesNotAllocate(t *testing.T) {
	h := NewHierarchy(K8Hierarchy(), stats.NewTree(), "c")
	now, fill := steadyMSHRs(h, 250)
	allocs := testing.AllocsPerRun(1000, func() {
		h.mshrAlloc(now<<6, now, fill)
		h.mshrInFlight((now-3)<<6, now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per mshrAlloc at 250 live lines, want 0", allocs)
	}
	if n := len(h.mshrs.heap); n < 240 {
		t.Fatalf("%d live lines, want about 250", n)
	}
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestMSHRSetGrows: past the occupancy it was built for the set doubles
// instead of failing, and keeps every entry findable.
func TestMSHRSetGrows(t *testing.T) {
	h := NewHierarchy(K8Hierarchy(), stats.NewTree(), "c")
	const n = 3 * mshrSetEntries
	for i := uint64(0); i < n; i++ {
		h.mshrAlloc(i<<6, 0, 1000+i)
	}
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if ready, merged := h.mshrAlloc(i<<6, 1, 7); !merged || ready != readyOf(i) {
			t.Fatalf("line %d: merged=%v ready=%d, want a merge completing at %d", i, merged, ready, readyOf(i))
		}
	}
}

// readyOf is when TestMSHRSetGrows' i-th line completes: the first
// MSHRs requests start at once, the others when the earliest does.
func readyOf(i uint64) uint64 {
	if i < 8 {
		return 1000 + i
	}
	return 1000 + 1000 + i
}

// refMSHRs is the miss-buffer list as it was before mshrSet, kept
// verbatim as the reference FuzzMSHRAlloc compares against: an unordered
// slice that every allocation compacts, scans for the line and scans for
// the earliest completion.
type refMSHRs struct {
	mshrs  []mshr
	limit  int
	merges int64
}

func (h *refMSHRs) alloc(lineAddr, now, fillLatency uint64) (uint64, bool) {
	// Retire completed MSHRs.
	live := h.mshrs[:0]
	for _, m := range h.mshrs {
		if m.ready > now {
			live = append(live, m)
		}
	}
	h.mshrs = live
	for _, m := range h.mshrs {
		if m.line == lineAddr {
			h.merges++
			return m.ready, true
		}
	}
	start := now
	if len(h.mshrs) >= h.limit {
		// All miss buffers busy: the request waits for the earliest
		// free slot (structural hazard).
		earliest := h.mshrs[0].ready
		for _, m := range h.mshrs[1:] {
			if m.ready < earliest {
				earliest = m.ready
			}
		}
		start = earliest
	}
	ready := start + fillLatency
	h.mshrs = append(h.mshrs, mshr{line: lineAddr, ready: ready})
	return ready, false
}

// hitProbe is the L1-hit path's scan for a fill in flight.
func (h *refMSHRs) hitProbe(lineAddr, ready uint64) (uint64, bool) {
	for _, m := range h.mshrs {
		if m.line == lineAddr && m.ready > ready {
			h.merges++
			return m.ready, true
		}
	}
	return 0, false
}

// FuzzMSHRAlloc drives the miss buffers and the reference list with the
// same stream of operations, four bytes each: the line (of 64, so that
// lines repeat), how far time moves (backwards too: a page walk asks at
// a future cycle, the next access at the present one), the fill latency
// and what to do (a miss from a load or a store — the same call —, an
// L1-hit probe, or rarely a flush). Every call must return the same
// (ready, merged), the merge counts must agree, and the audit must pass
// throughout.
func FuzzMSHRAlloc(f *testing.F) {
	// Within occupancy: a few lines, long gaps.
	f.Add([]byte{1, 40, 10, 0, 2, 40, 10, 0, 1, 1, 10, 0, 3, 200, 10, 0, 1, 5, 10, 2})
	// Over occupancy: a new line per cycle with a long fill, as in a store sweep.
	over := make([]byte, 0, 4*60)
	for i := 0; i < 60; i++ {
		over = append(over, byte(i), 1, 250, byte(i%2))
	}
	f.Add(over)
	// A line missed again after its entry died, around a probe and a flush.
	f.Add([]byte{7, 1, 5, 0, 7, 2, 5, 2, 7, 20, 5, 0, 7, 1, 5, 2, 9, 0, 5, 3, 7, 1, 5, 0})
	// A line missed again in the very cycle its entry completes: a new miss, not a merge.
	f.Add([]byte{1, 0, 4, 0, 1, 5, 4, 0, 2, 0, 4, 0, 2, 4, 4, 0, 2, 1, 4, 2})
	// Equal completion times, and time stepping back.
	f.Add([]byte{1, 0, 9, 0, 2, 0, 9, 0, 3, 0, 9, 0, 4, 129, 9, 0, 1, 9, 1, 0, 5, 0, 1, 0, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Small arrays: Audit walks every cache level after every call.
		cfg := HierarchyConfig{
			L1D:   Config{Size: 512, Assoc: 2, LineSize: 64, Latency: 3},
			L1I:   Config{Size: 512, Assoc: 2, LineSize: 64, Latency: 1},
			L2:    Config{Size: 2048, Assoc: 4, LineSize: 64, Latency: 10},
			MSHRs: 4,
		}
		tree := stats.NewTree()
		h := NewHierarchy(cfg, tree, "c")
		ref := &refMSHRs{limit: cfg.MSHRs}
		now := uint64(1000)
		for i := 0; i+4 <= len(ops); i += 4 {
			line := uint64(ops[i]%64) << 6
			if d := ops[i+1]; d < 128 {
				now += uint64(d)
			} else if back := uint64(d - 128); back < now {
				now -= back
			}
			fill := uint64(ops[i+2]) + 1
			var got, want uint64
			var gotM, wantM bool
			switch op := ops[i+3] % 16; {
			case op == 15:
				h.Flush()
				ref.mshrs = ref.mshrs[:0]
			case op%4 == 2:
				got, gotM = h.mshrInFlight(line, now)
				want, wantM = ref.hitProbe(line, now)
			default:
				got, gotM = h.mshrAlloc(line, now, fill)
				want, wantM = ref.alloc(line, now, fill)
			}
			if got != want || gotM != wantM {
				t.Fatalf("op %d (line %#x, now %d, fill %d, kind %d): got (%d, %v), the list gives (%d, %v)",
					i/4, line, now, fill, ops[i+3]%16, got, gotM, want, wantM)
			}
			if err := h.Audit(); err != nil {
				t.Fatalf("op %d: %v", i/4, err)
			}
		}
		if got := tree.Lookup("c.mshr.merges").Value(); got != ref.merges {
			t.Fatalf("mshr.merges %d, the list counts %d", got, ref.merges)
		}
		if len(h.mshrs.heap) != len(ref.mshrs) {
			t.Fatalf("%d entries outstanding, the list holds %d", len(h.mshrs.heap), len(ref.mshrs))
		}
	})
}
