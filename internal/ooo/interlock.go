package ooo

// Interlock is the interlock controller shared by all SMT threads in a
// core and (via the memory hierarchy) all cores in a machine: x86
// LOCK-prefixed instructions acquire a lock on the physical cache line
// at their ld.acq uop and release it when the owning instruction
// commits (or is squashed). Competing accesses replay until they can
// acquire the lock — the paper's §4.4 semantics, matching Pentium 4
// hyperthreading behavior.
type Interlock struct {
	// held lists the locked lines. Only the few locked instructions in
	// flight hold one at a time, so a linear search beats hashing.
	held []heldLock
}

type heldLock struct {
	line         uint64
	core, thread int
	seq          uint64 // owning instruction's sequence number
}

func (l *heldLock) ownedBy(core, thread int, seq uint64) bool {
	return l.core == core && l.thread == thread && l.seq == seq
}

// NewInterlock creates an empty controller.
func NewInterlock() *Interlock { return &Interlock{} }

func (il *Interlock) find(line uint64) int {
	for i := range il.held {
		if il.held[i].line == line {
			return i
		}
	}
	return -1
}

// drop removes entry i (order is irrelevant: lines are unique).
func (il *Interlock) drop(i int) {
	last := len(il.held) - 1
	il.held[i] = il.held[last]
	il.held = il.held[:last]
}

// Acquire attempts to lock line for (core, thread, seq). It succeeds if
// the line is free or already held by the same instruction. Deadlock
// freedom: a younger instruction can never block an older one of the
// same thread because each thread holds at most one interlock at a
// time and locks are acquired at a single uop.
func (il *Interlock) Acquire(line uint64, core, thread int, seq uint64) bool {
	if i := il.find(line); i >= 0 {
		return il.held[i].ownedBy(core, thread, seq)
	}
	il.held = append(il.held, heldLock{line: line, core: core, thread: thread, seq: seq})
	return true
}

// Release unlocks line if (core, thread, seq) owns it.
func (il *Interlock) Release(line uint64, core, thread int, seq uint64) {
	if i := il.find(line); i >= 0 && il.held[i].ownedBy(core, thread, seq) {
		il.drop(i)
	}
}

// ReleaseAllFor releases every lock held by instructions of (core,
// thread) with sequence >= minSeq — used when squashing.
func (il *Interlock) ReleaseAllFor(core, thread int, minSeq uint64) {
	for i := len(il.held) - 1; i >= 0; i-- {
		if l := &il.held[i]; l.core == core && l.thread == thread && l.seq >= minSeq {
			il.drop(i)
		}
	}
}
