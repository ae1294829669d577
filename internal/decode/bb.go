package decode

import (
	"errors"

	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// Basic block construction limits (PTLsim caps block length so the
// frontend can rename a block per cycle group).
const (
	MaxBBX86Insns = 24
	MaxBBUops     = 96
)

// BasicBlock is a decoded, translated run of x86 instructions ending at
// a branch (or at the block size cap). It is what the basic block cache
// stores: the simulator fetches pre-decoded uops from here instead of
// re-decoding x86 bytes every cycle, without affecting the modeled
// timing (I-cache accesses are still simulated).
type BasicBlock struct {
	RIP    uint64
	Uops   []uops.Uop
	X86Len uint64 // total bytes of x86 code covered
	NumX86 int    // instructions in the block (REP check not counted)

	// EndsInBranch reports whether the final uop redirects fetch; if
	// false the block fell off the cap and fetch falls through to
	// RIP+X86Len.
	EndsInBranch bool

	// Lowered is the functional engine's executable form of the block
	// (internal/seqcore), built the first time that engine runs it and
	// dropped with the block.
	Lowered any
}

// FallThrough returns the next fetch RIP when the block does not end
// in a taken branch.
func (bb *BasicBlock) FallThrough() uint64 { return bb.RIP + bb.X86Len }

// FetchFunc reads guest code bytes at a virtual address into buf,
// returning how many contiguous bytes were readable and a fault if the
// very first byte cannot be fetched. Page-crossing instructions are
// handled by the builder calling again at the next page.
type FetchFunc func(va uint64, buf []byte) (int, uops.Fault)

// Chunks hands out slices carved from chunks of Size elements. No
// element is handed out twice, so a slice stays valid for as long as
// anything holds it, whatever happens to the holder that took it. Size
// 0 allocates every slice on its own.
type Chunks[T any] struct {
	Size int
	free []T
}

// Take returns n zeroed elements.
func (c *Chunks[T]) Take(n int) []T {
	if n > len(c.free) {
		if n > c.Size {
			return make([]T, n)
		}
		c.free = make([]T, c.Size)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// Drop abandons the current chunk: the next Take starts a new one.
func (c *Chunks[T]) Drop() { c.free = nil }

// Arena builds basic blocks into chunks it owns. Its zero value
// allocates each block on its own (BuildBB); NewArena's carves blocks
// from shared chunks, so that building a block allocates nothing once
// the chunks have room.
type Arena struct {
	// What building one block needs, reused block to block: the
	// translation buffer, the fetch window and the decoded instruction.
	scratch []uops.Uop
	window  [x86.MaxInstLen]byte
	inst    x86.Inst

	uops   Chunks[uops.Uop]
	blocks Chunks[BasicBlock]
}

// NewArena returns an arena carving blocks from chunks of 64 blocks
// and 512 uops (32 KiB).
func NewArena() *Arena {
	return &Arena{uops: Chunks[uops.Uop]{Size: 512}, blocks: Chunks[BasicBlock]{Size: 64}}
}

// Drop abandons the arena's current chunks. Blocks already built stay
// valid: a chunk is never reused.
func (a *Arena) Drop() {
	a.uops.Drop()
	a.blocks.Drop()
}

// BuildBB decodes and translates a basic block starting at rip into
// memory of its own. A fetch fault on the first instruction is returned
// to the caller (the core delivers a page fault); an undefined
// instruction becomes a #UD assist uop so the fault is raised precisely
// when it executes.
func BuildBB(fetch FetchFunc, rip uint64) (*BasicBlock, uops.Fault) {
	var a Arena
	return a.Build(fetch, rip)
}

// Build is BuildBB into the arena's chunks.
func (a *Arena) Build(fetch FetchFunc, rip uint64) (*BasicBlock, uops.Fault) {
	bb, us, fault := a.build(fetch, rip)
	a.scratch = us[:0]
	if fault != uops.FaultNone {
		return nil, fault
	}
	out := &a.blocks.Take(1)[0]
	*out = bb
	out.Uops = a.uops.Take(len(us))
	copy(out.Uops, us)
	return out, uops.FaultNone
}

// build decodes the block at rip, translating into the arena's scratch
// buffer. It returns the block without its uops, and the uops.
func (a *Arena) build(fetch FetchFunc, rip uint64) (BasicBlock, []uops.Uop, uops.Fault) {
	bb := BasicBlock{RIP: rip}
	us := a.scratch[:0]
	window, inst := a.window[:], &a.inst
	cur := rip
	for bb.NumX86 < MaxBBX86Insns && len(us) < MaxBBUops {
		n, fault := fetch(cur, window)
		if n == 0 {
			if bb.NumX86 == 0 {
				if fault == uops.FaultNone {
					fault = uops.FaultPageExec
				}
				return bb, us, fault
			}
			// Fault will be taken when fetch reaches this RIP.
			break
		}
		var err error
		*inst, err = x86.Decode(window[:n])
		if err != nil {
			if errors.Is(err, x86.ErrTruncated) && n < len(window) {
				// Instruction runs into an unfetchable page: fault on
				// reaching it, not now.
				if bb.NumX86 == 0 {
					return bb, us, uops.FaultPageExec
				}
				break
			}
			// Undefined opcode: raise #UD when executed.
			us = append(us, uops.Uop{Op: uops.OpAssist, Assist: uops.AssistUD,
				RIP: cur, X86Len: 1, SOM: true, EOM: true})
			bb.NumX86++
			bb.X86Len = cur + 1 - rip
			bb.EndsInBranch = true // treat as block end
			return bb, us, uops.FaultNone
		}
		var terr error
		us, terr = Translate(inst, cur, us)
		if terr != nil {
			us = append(us, uops.Uop{Op: uops.OpAssist, Assist: uops.AssistUD,
				RIP: cur, X86Len: inst.Len, SOM: true, EOM: true})
		}
		bb.NumX86++
		cur += uint64(inst.Len)
		bb.X86Len = cur - rip
		if inst.IsBranch() {
			bb.EndsInBranch = true
			break
		}
	}
	if len(us) == 0 {
		return bb, us, uops.FaultPageExec
	}
	return bb, us, uops.FaultNone
}
