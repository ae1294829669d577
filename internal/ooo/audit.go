package ooo

import (
	"fmt"

	"ptlsim/internal/bpred"
	"ptlsim/internal/simerr"
)

// Audit runs the pipeline invariant auditor: structural checks over the
// ROB, LSQ, fetch queue, issue queues, completion heap, physical
// register freelist, cache hierarchy and RAS that hold between cycles
// in a healthy core. Everything the per-cycle loop keeps redundantly to
// avoid scanning (cached issue-queue tags, scheduled completions, sleep
// deadlines, ring occupancies) is checked against the ROB it mirrors. A
// violation returns a KindInvariant SimError carrying the pipeline
// dump. The checks are O(ROB + LSQ + IQ + PhysRegs + cache arrays) with
// no allocation beyond a reused scratch buffer, cheap enough to run on
// a sampling cadence during long runs (SetAudit).
func (c *Core) Audit() error {
	for _, th := range c.threads {
		if err := c.auditROB(th); err != nil {
			return err
		}
		if err := c.auditLSQ(th); err != nil {
			return err
		}
		if err := c.auditFrontend(th); err != nil {
			return err
		}
		if err := th.pred.RAS().Audit(); err != nil {
			return c.invariantErr("thread %d: %v", th.id, err)
		}
	}
	if err := c.auditFreelist(); err != nil {
		return err
	}
	if err := c.auditScheduling(); err != nil {
		return err
	}
	if err := c.hier.Audit(); err != nil {
		return c.invariantErr("core %d: %v", c.ID, err)
	}
	return nil
}

// scratch returns the reused marking buffer, n zeroed bytes.
func (c *Core) scratch(n int) []uint8 {
	if cap(c.auditScratch) < n {
		c.auditScratch = make([]uint8, n)
	}
	s := c.auditScratch[:n]
	clear(s)
	return s
}

// auditROB checks reorder buffer ordering: the head of a non-empty ROB
// must be an instruction start (SOM), every occupied slot must be
// valid, sequence numbers must strictly increase head to tail, state
// fields must be within the enum, and the op class cached at rename
// (it selects the execution latency at issue) must be the uop's, on a
// cluster that executes it.
func (c *Core) auditROB(th *thread) error {
	if th.robCount < 0 || th.robCount > len(th.rob) {
		return c.invariantErr("thread %d: ROB count %d out of bounds [0,%d]", th.id, th.robCount, len(th.rob))
	}
	var prevSeq uint64
	for i := 0; i < th.robCount; i++ {
		e := th.robAt(i)
		if !e.valid {
			return c.invariantErr("thread %d: ROB slot %d (of %d occupied) invalid", th.id, i, th.robCount)
		}
		if i == 0 && !e.uop.SOM {
			return c.invariantErr("thread %d: ROB head not at instruction start (rip %#x, seq %d)",
				th.id, e.uop.RIP, e.seq)
		}
		if i > 0 && e.seq <= prevSeq {
			return c.invariantErr("thread %d: ROB age order broken at slot %d: seq %d after %d",
				th.id, i, e.seq, prevSeq)
		}
		prevSeq = e.seq
		if e.state > stateDone {
			return c.invariantErr("thread %d: ROB slot %d has undefined state %d (rip %#x)",
				th.id, i, e.state, e.uop.RIP)
		}
		if e.class != classOf(&e.uop) {
			return c.invariantErr("thread %d: seq %d (op %v) carries cached op class %d, want %d",
				th.id, e.seq, e.uop.Op, e.class, classOf(&e.uop))
		}
		if e.cluster < 0 || int(e.cluster) >= len(c.iqs) || !c.cfg.Clusters[e.cluster].Classes.Has(e.class) {
			return c.invariantErr("thread %d: seq %d (op class %d) assigned to cluster %d, which does not execute it",
				th.id, e.seq, e.class, e.cluster)
		}
	}
	return nil
}

// sound reports whether the ring's indices are within its storage.
func (r *ring[T]) sound() bool {
	return r.n >= 0 && r.n <= len(r.buf) && r.head >= 0 && r.head < len(r.buf)
}

// auditLSQ checks load/store queue consistency: occupancy within the
// configured size, every LDQ/STQ slot must reference a valid in-flight
// ROB entry of the right kind, in program order, and every in-flight
// memory uop must appear in its queue exactly once (the forwarding
// search depends on both).
func (c *Core) auditLSQ(th *thread) error {
	check := func(q *ring[int32], name string, want func(e *robEntry) bool) error {
		if !q.sound() {
			return c.invariantErr("thread %d: %s ring head %d, count %d outside its %d slots",
				th.id, name, q.head, q.n, len(q.buf))
		}
		var prevSeq uint64
		for i := 0; i < q.len(); i++ {
			idx := int(*q.at(i))
			if idx < 0 || idx >= len(th.rob) {
				return c.invariantErr("thread %d: %s slot %d: rob index %d out of bounds", th.id, name, i, idx)
			}
			e := &th.rob[idx]
			if !e.valid {
				return c.invariantErr("thread %d: %s slot %d references squashed rob entry %d", th.id, name, i, idx)
			}
			if !want(e) {
				return c.invariantErr("thread %d: %s slot %d: rob entry %d is not a %s uop (op %v, rip %#x)",
					th.id, name, i, idx, name, e.uop.Op, e.uop.RIP)
			}
			if i > 0 && e.seq <= prevSeq {
				return c.invariantErr("thread %d: %s program order broken at slot %d: seq %d after %d",
					th.id, name, i, e.seq, prevSeq)
			}
			prevSeq = e.seq
		}
		return nil
	}
	if err := check(&th.ldq, "ldq", func(e *robEntry) bool { return e.uop.IsLoad() }); err != nil {
		return err
	}
	if err := check(&th.stq, "stq", func(e *robEntry) bool { return e.uop.IsStore() }); err != nil {
		return err
	}
	loads, stores := 0, 0
	for i := 0; i < th.robCount; i++ {
		e := th.robAt(i)
		if e.uop.IsLoad() {
			loads++
		}
		if e.uop.IsStore() {
			stores++
		}
	}
	if loads != th.ldq.len() {
		return c.invariantErr("thread %d: %d in-flight loads but %d LDQ entries", th.id, loads, th.ldq.len())
	}
	if stores != th.stq.len() {
		return c.invariantErr("thread %d: %d in-flight stores but %d STQ entries", th.id, stores, th.stq.len())
	}
	return nil
}

// auditFrontend checks the fetch queue ring, that no recovery is left
// pending between cycles, and the RAS checkpoint ring: the calls and
// returns in flight (ROB, then fetch queue, in program order) must hold
// consecutive checkpoints ending at the newest one taken — otherwise a
// squash forgot to rewind the ring and a live checkpoint can be
// overwritten.
func (c *Core) auditFrontend(th *thread) error {
	if !th.fetchQ.sound() {
		return c.invariantErr("thread %d: fetch queue ring head %d, count %d outside its %d slots",
			th.id, th.fetchQ.head, th.fetchQ.n, len(th.fetchQ.buf))
	}
	if th.hasRedirect {
		return c.invariantErr("thread %d: recovery to %#x left pending between cycles", th.id, th.redirect.rip)
	}
	var oldest bpred.RASSnapshot
	live := 0
	hold := func(s bpred.RASSnapshot, seq uint64) error {
		if live == 0 {
			oldest = s
		} else if s != oldest+bpred.RASSnapshot(live) {
			return c.invariantErr("thread %d: RAS checkpoint %d (seq %d) does not follow %d checkpoints from %d",
				th.id, s, seq, live, oldest)
		}
		live++
		return nil
	}
	for i := 0; i < th.robCount; i++ {
		if e := th.robAt(i); e.hasRASSnap {
			if err := hold(e.rasSnap, e.seq); err != nil {
				return err
			}
		}
	}
	for i := 0; i < th.fetchQ.len(); i++ {
		if f := th.fetchQ.at(i); f.hasRASSnap {
			if err := hold(f.rasSnap, 0); err != nil {
				return err
			}
		}
	}
	if err := th.pred.RAS().AuditCheckpoints(oldest, live); err != nil {
		return c.invariantErr("thread %d: %v", th.id, err)
	}
	return nil
}

// auditScheduling checks the issue queues and the completion heap
// against the ROB: every waiting uop sits in exactly one issue queue
// slot (its cluster's), whose cached source tags and replay backoff
// equal the ROB entry's; every issued uop has exactly one scheduled
// completion, at its readyCycle; done uops have neither. A queue that
// sleeps until wakeAt must hold no entry that could issue before then,
// and the heap must be ordered and within its bound.
func (c *Core) auditScheduling() error {
	const (
		inIQ = iota + 1
		inHeap
	)
	robSize := c.cfg.ROBSize
	marks := c.scratch(len(c.threads) * robSize)
	// locate validates a (thread, slot, seq) reference to an in-flight
	// ROB entry and claims the entry for the structure holding it.
	locate := func(where string, i int, thread, slot int32, seq uint64, mark uint8) (*robEntry, error) {
		if thread < 0 || int(thread) >= len(c.threads) || slot < 0 || int(slot) >= robSize {
			return nil, c.invariantErr("%s slot %d references thread %d rob slot %d: out of bounds",
				where, i, thread, slot)
		}
		e := &c.threads[thread].rob[slot]
		if !e.valid || e.seq != seq {
			return nil, c.invariantErr("%s slot %d references thread %d rob slot %d seq %d, which holds seq %d (valid=%v)",
				where, i, thread, slot, seq, e.seq, e.valid)
		}
		m := &marks[int(thread)*robSize+int(slot)]
		if *m != 0 {
			return nil, c.invariantErr("%s slot %d: thread %d seq %d is scheduled twice", where, i, thread, seq)
		}
		*m = mark
		return e, nil
	}
	for q := range c.iqs {
		iq := &c.iqs[q]
		name := c.cfg.Clusters[q].Name
		if len(iq.ents) > c.cfg.Clusters[q].IQSize {
			return c.invariantErr("issue queue %s: %d entries in %d slots", name, len(iq.ents), c.cfg.Clusters[q].IQSize)
		}
		var prevSeq uint64
		for i := range iq.ents {
			ent := &iq.ents[i]
			e, err := locate(name, i, ent.thread, ent.rob, ent.seq, inIQ)
			if err != nil {
				return err
			}
			if e.state != stateWaiting || int(e.cluster) != q {
				return c.invariantErr("issue queue %s slot %d: seq %d is in state %d, cluster %d",
					name, i, e.seq, e.state, e.cluster)
			}
			if ent.src != e.src || ent.earliest != e.earliest {
				return c.invariantErr("issue queue %s slot %d: cached tags %v / not-before %d differ from rob seq %d (%v / %d)",
					name, i, ent.src, ent.earliest, e.seq, e.src, e.earliest)
			}
			if ent.seq <= prevSeq {
				return c.invariantErr("issue queue %s slot %d: age order broken: seq %d after %d",
					name, i, ent.seq, prevSeq)
			}
			prevSeq = ent.seq
			for _, p := range ent.src {
				if p < 0 || int(p) >= len(c.prf) {
					return c.invariantErr("issue queue %s slot %d: seq %d reads physical register %d out of bounds [0,%d)",
						name, i, e.seq, p, len(c.prf))
				}
				if r := &c.prf[p]; r.ready == 0 && r.waiters&queueBit(q) == 0 {
					return c.invariantErr("issue queue %s slot %d: seq %d waits for physical register %d, which will not wake the queue",
						name, i, e.seq, p)
				}
			}
			if ent.earliest < iq.wakeAt && c.srcsReady(&ent.src) {
				return c.invariantErr("issue queue %s slot %d: seq %d can issue at cycle %d but the queue sleeps until %d",
					name, i, e.seq, ent.earliest, iq.wakeAt)
			}
		}
	}
	if len(c.compl) > len(c.threads)*robSize {
		return c.invariantErr("%d scheduled completions exceed the %d uops that can be in flight",
			len(c.compl), len(c.threads)*robSize)
	}
	for i := range c.compl {
		ev := &c.compl[i]
		e, err := locate("completion heap", i, ev.thread, ev.slot, ev.seq, inHeap)
		if err != nil {
			return err
		}
		// A uop whose latency had already elapsed when it issued is due
		// at the first writeback after its issue cycle instead.
		late := e.readyCycle < ev.due && ev.due <= c.now+1
		if e.state != stateIssued || (ev.due != e.readyCycle && !late) {
			return c.invariantErr("completion heap slot %d: due %d for seq %d in state %d, ready at %d",
				i, ev.due, e.seq, e.state, e.readyCycle)
		}
		if i > 0 && ev.before(&c.compl[(i-1)/2]) {
			return c.invariantErr("completion heap slot %d: order broken (due %d above due %d)",
				i, c.compl[(i-1)/2].due, ev.due)
		}
	}
	for _, th := range c.threads {
		for i := 0; i < th.robCount; i++ {
			slot := th.robSlot(i)
			e := &th.rob[slot]
			var want uint8
			switch e.state {
			case stateWaiting:
				want = inIQ
			case stateIssued:
				want = inHeap
			}
			if marks[th.id*robSize+slot] != want {
				return c.invariantErr("thread %d seq %d in state %d: scheduled in %d, want %d (1 = issue queue, 2 = completion heap, 0 = neither)",
					th.id, e.seq, e.state, marks[th.id*robSize+slot], want)
			}
		}
	}
	return nil
}

// auditFreelist checks physical register accounting: between cycles
// every physical register is either on the free list or reachable from
// a RAT mapping or an in-flight ROB entry (current or previous
// mapping), never both and never neither — catching both double-frees
// and leaks.
func (c *Core) auditFreelist() error {
	const (
		unseen = iota
		free
		allocated
	)
	seen := c.scratch(len(c.prf))
	for _, p := range c.free {
		if p < 0 || int(p) >= len(c.prf) {
			return c.invariantErr("freelist entry %d out of bounds [0,%d)", p, len(c.prf))
		}
		if seen[p] != unseen {
			return c.invariantErr("physical register %d on the free list twice", p)
		}
		seen[p] = free
	}
	mark := func(p int32, what string) error {
		if p < 0 {
			return nil
		}
		if int(p) >= len(c.prf) {
			return c.invariantErr("%s references physical register %d out of bounds [0,%d)", what, p, len(c.prf))
		}
		if seen[p] == free {
			return c.invariantErr("physical register %d is both free and referenced by %s (use after free)", p, what)
		}
		seen[p] = allocated
		return nil
	}
	for _, th := range c.threads {
		for r, p := range th.rat {
			if err := mark(p, fmt.Sprintf("thread %d RAT[%d]", th.id, r)); err != nil {
				return err
			}
		}
		for i := 0; i < th.robCount; i++ {
			e := th.robAt(i)
			what := fmt.Sprintf("thread %d rob seq %d", th.id, e.seq)
			for _, p := range [...]int32{e.rdPhys, e.rdOld, e.flPhys, e.flOld} {
				if err := mark(p, what); err != nil {
					return err
				}
			}
		}
	}
	for p := range seen {
		if seen[p] == unseen {
			return c.invariantErr("physical register %d leaked: neither free nor referenced", p)
		}
	}
	return nil
}

// invariantErr builds a structured KindInvariant SimError with the
// core's current microarchitectural context attached.
func (c *Core) invariantErr(format string, args ...interface{}) error {
	ctx := c.threads[0].ctx
	return &simerr.SimError{
		Kind:     simerr.KindInvariant,
		Cycle:    c.now,
		VCPU:     ctx.ID,
		RIP:      ctx.RIP,
		Commit:   c.cInsns.Value(),
		Message:  fmt.Sprintf(format, args...),
		Dump:     c.DumpState(),
		LastRIPs: c.RecentCommits(),
	}
}
