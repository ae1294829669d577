package ooo

// Host-side data structures of the per-cycle loop. Each is allocated
// once in New from a Config size and never grows, so that a steady-
// state Cycle allocates nothing, and each lets a stage find what
// happened this cycle without scanning for it (DESIGN.md §5).

// ring is a fixed-capacity queue over storage allocated once. The
// fetch queue, LDQ and STQ push at the tail (fetch, rename), pop at the
// head (rename, commit) and are trimmed from the tail on a squash.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) len() int   { return r.n }
func (r *ring[T]) full() bool { return r.n == len(r.buf) }

// at returns the i-th element from the head (0 = oldest).
func (r *ring[T]) at(i int) *T {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// pushBack claims the slot behind the newest element and returns it for
// the caller to fill; the slot still holds whatever it held last. The
// caller checks full() first.
func (r *ring[T]) pushBack() *T {
	r.n++
	return r.at(r.n - 1)
}

func (r *ring[T]) popFront() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

func (r *ring[T]) popBack() { r.n-- }

func (r *ring[T]) clear() { r.head, r.n = 0, 0 }

// completion is a scheduled writeback: the uop in ROB slot `slot` of
// `thread` finishes executing at cycle `due`.
type completion struct {
	due    uint64
	seq    uint64
	thread int32
	slot   int32
}

// before orders completions the way the writeback stage must process
// them: by cycle, and within a cycle thread-major then in ROB (program)
// order — the order a walk over every thread's ROB would find them in,
// which the event log and everything rendered from it depends on.
func (a *completion) before(b *completion) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	if a.thread != b.thread {
		return a.thread < b.thread
	}
	return a.seq < b.seq
}

// completionHeap is a binary min-heap of the completions of every uop
// in stateIssued: issue pushes one per executed uop, writeback pops
// those that are due, and a squash purges the squashed uops' entries,
// so it never holds more than threads × ROBSize entries (its capacity;
// Audit checks the one-to-one correspondence).
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	s := append(*h, c)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h completionHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop removes and returns the earliest completion.
func (h *completionHeap) pop() completion {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	s.siftDown(0)
	*h = s
	return top
}

// purge drops thread's completions younger than afterSeq (every one of
// them for afterSeq 0) and restores the heap order.
func (h *completionHeap) purge(thread int32, afterSeq uint64) {
	s := *h
	kept := s[:0]
	for i := range s {
		if s[i].thread == thread && s[i].seq > afterSeq {
			continue
		}
		kept = append(kept, s[i])
	}
	if len(kept) != len(s) {
		for i := len(kept)/2 - 1; i >= 0; i-- {
			kept.siftDown(i)
		}
	}
	*h = kept
}

// iqEntry is an issue queue slot. It caches what selection needs from
// the ROB entry it refers to — the source tags and the replay backoff —
// so the select loop reads this compact array and the register ready
// bits, and touches the ROB entry only of a uop it is about to execute.
type iqEntry struct {
	seq      uint64
	earliest uint64 // copy of robEntry.earliest
	src      [3]int32
	rob      int32
	thread   int32
}

// never is the wakeAt of a queue that sleeps until it is woken.
const never = ^uint64(0)

// issueQueue is one cluster's collapsing issue queue, oldest first.
type issueQueue struct {
	ents []iqEntry // len = occupancy, cap = the cluster's IQSize

	// From the cluster's configuration: uops issued per cycle, and the
	// execution latency per op class as seen from this cluster (at
	// least one cycle).
	width   int
	latency [NumClasses]uint64

	// wakeAt lets the issue stage skip the queue: the last scan saw
	// every entry and none of them can issue before cycle wakeAt (the
	// smallest replay backoff among those whose sources are ready)
	// unless something changes first, and whatever changes it zeroes
	// wakeAt: writeback, when it makes a register ready that a uop in
	// this queue waits for (physReg.waiters), and rename, when it
	// dispatches a uop here whose sources are all ready. A scan that
	// issues nothing touches no counter, so skipping it is invisible.
	wakeAt uint64
}
