package seqcore

import (
	"fmt"

	"ptlsim/internal/decode"
	"ptlsim/internal/mem"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
)

// block is the engine's executable form of a decoded basic block: a
// step per uop with its operands resolved, plus a step that saves the
// registers of an instruction that may have to be rolled back and one
// that commits an instruction's stores. An instruction boundary costs
// nothing else: counters are added and RIP is written when a run of
// the block ends.
type block struct {
	steps  []step
	groups []group // one per uop group, then a sentinel at the fall-through
}

// group is one uop group: an x86 instruction or a REP check. Its
// counters are the totals of the groups before it.
type group struct {
	rip     uint64
	first   int32 // index of its first step
	uops    int32 // uops it counts when it completes
	noCount bool  // a REP check, not a committed instruction
	undo    bool  // its first step saves the registers
	lastOp  uops.Op

	insns, uopsBefore, loads, stores, branches int32
}

// status is how a step ended.
type status uint8

const (
	stNext   status = iota // go on with the next step
	stLeft                 // a branch completed its instruction and left the block (ctx.RIP is set)
	stAssist               // an assist completed its instruction and left the block
	stFault                // c.fault was raised: the instruction does not complete
	stError                // the step cannot run (c.err)
)

// Step kinds: what the hooked loop reports and a fault counts.
const (
	kLoad uint8 = 1 << iota
	kStore
	kBranch
	kEOM // last step of its group
)

// step is one pre-bound operation. A b-operand immediate and a memory
// displacement live in imm, with rb = RegZero for the former, so every
// handler reads regs[ra] + regs[rb] (RegZero reads zero: run clears it).
type step struct {
	run  func(c *Core, s *step) status
	u    *uops.Uop
	imm  uint64 // b immediate, or displacement
	mask uint64 // stores: access size mask
	aux  uint64 // branches: the fall-through RIP

	rd, ra, rb, rc           uops.ArchReg
	scale, size, group, kind uint8 // size: memory access size
}

// lowered returns bb's executable form, building it in the core's
// chunks on first use.
func (c *Core) lowered(bb *decode.BasicBlock) *block {
	if b, ok := bb.Lowered.(*block); ok {
		return b
	}
	steps, groups := c.lowSteps[:0], c.lowGroups[:0]
	var cum group // running totals
	for us, start := bb.Uops, 0; start < len(us); {
		end := start
		for end < len(us) && !us[end].EOM {
			end++
		}
		complete := end < len(us)
		if complete {
			end++
		}
		next := bb.FallThrough()
		if end < len(us) {
			next = us[end].RIP
		}
		g, gi := cum, uint8(len(groups))
		g.rip, g.first, g.uops = us[start].RIP, int32(len(steps)), int32(end-start)
		g.noCount, g.lastOp = us[end-1].NoCount, us[end-1].Op
		// Registers need saving only if a uop that can fault follows
		// one that writes a register.
		wrote, stores := false, false
		for i := start; i < end; i++ {
			u := &us[i]
			g.undo = g.undo || wrote && canFault(u)
			wrote = wrote || u.Op != uops.OpAssist && (u.Rd != uops.RegZero || u.SetFlags != 0)
			stores = stores || u.IsStore()
		}
		if g.undo {
			steps = append(steps, step{run: (*Core).save, group: gi})
		}
		for i := start; i < end; i++ {
			s := bind(&us[i], next)
			s.group = gi
			switch {
			case s.kind == kLoad:
				cum.loads++
			case s.kind == kStore:
				cum.stores++
			case s.kind == kBranch && i != end-1:
				s.run = malformed
			case s.kind == kBranch && stores:
				// A branch cannot fault: commit before it may leave.
				steps = append(steps, step{run: (*Core).commit, group: gi})
				stores = false
			}
			if s.kind == kBranch {
				cum.branches++
			}
			if us[i].Op == uops.OpAssist {
				g.uops, end = 1, i+1 // an assist ends its group, and counts one uop
			}
			steps = append(steps, s)
		}
		if stores {
			steps = append(steps, step{run: (*Core).commit, group: gi})
		}
		if !complete {
			steps = append(steps, step{run: malformed, u: &us[end-1], group: gi})
		}
		steps[len(steps)-1].kind |= kEOM
		if !g.noCount {
			cum.insns++
		}
		cum.uopsBefore += g.uops
		groups = append(groups, g)
		start = end
	}
	cum.rip, cum.first = bb.FallThrough(), int32(len(steps))
	groups = append(groups, cum)
	c.lowSteps, c.lowGroups = steps, groups

	b := &c.blocks.Take(1)[0]
	b.steps, b.groups = c.steps.Take(len(steps)), c.groups.Take(len(groups))
	copy(b.steps, steps)
	copy(b.groups, groups)
	bb.Lowered = b
	return b
}

// canFault reports whether executing u can raise a fault.
func canFault(u *uops.Uop) bool {
	switch u.Op {
	case uops.OpLd, uops.OpLdAcq, uops.OpSt, uops.OpStRel, uops.OpAssist,
		uops.OpDiv, uops.OpRem, uops.OpDivs, uops.OpRems:
		return true
	}
	return u.Op >= uops.NumOps
}

// bind resolves u's operands and picks its handler; next is the RIP
// after u's group.
func bind(u *uops.Uop, next uint64) step {
	s := step{run: execUop, u: u, rd: u.Rd, ra: u.Ra, rb: u.Rb, rc: u.Rc, scale: u.Scale, size: u.MemSize}
	if u.BImm {
		s.rb, s.imm = uops.RegZero, uint64(u.Imm)
	}
	switch {
	case u.Op == uops.OpAssist:
		s.run = assist
	case u.IsLoad():
		s.run, s.kind, s.imm = load, kLoad, s.imm<<u.Scale+uint64(u.Imm)
	case u.IsStore():
		s.run, s.kind, s.imm, s.mask = store, kStore, s.imm<<u.Scale+uint64(u.Imm), uops.Mask(u.MemSize)
	case u.IsBranch():
		s.run, s.kind, s.aux = branch, kBranch, next
	}
	return s
}

// execUop executes any other uop through uops.Exec.
func execUop(c *Core, s *step) status {
	r := &c.Ctx.Regs
	res, flags, fault := uops.Exec(s.u, r[s.ra], r[s.rb]+s.imm, r[s.rc])
	if fault != uops.FaultNone {
		c.fault = fault
		return stFault
	}
	if s.rd != uops.RegZero {
		r[s.rd] = res
	}
	if s.u.SetFlags != 0 {
		r[uops.RegFlags] = flags
	}
	return stNext
}

func load(c *Core, s *step) status {
	r := &c.Ctx.Regs
	va := r[s.ra] + r[s.rb]<<s.scale + s.imm
	val, fault := c.loadValue(va, s.size)
	if fault != uops.FaultNone {
		c.fault = fault
		return stFault
	}
	if s.rd != uops.RegZero {
		r[s.rd] = val
	}
	c.va = va
	return stNext
}

// store translates and buffers a store for its instruction's commit
// step. A page-crossing store translates its second page here too, so
// the whole instruction faults before any byte is written and the
// commit writes physically.
func store(c *Core, s *step) status {
	ctx := c.Ctx
	va := ctx.Regs[s.ra] + ctx.Regs[s.rb]<<s.scale + s.imm
	st := mem.Store{VA: va, Val: ctx.Regs[s.rc] & s.mask, Size: s.size}
	var fault uops.Fault
	st.PA, fault = ctx.Translate(va, true, false)
	if first := mem.PageSize - va&mem.PageMask; fault == uops.FaultNone && first < uint64(s.size) {
		st.PA2, fault = ctx.Translate(va+first, true, false)
	}
	if fault != uops.FaultNone {
		c.fault = fault
		return stFault
	}
	c.stores = append(c.stores, st)
	return stNext
}

// branch resolves a branch uop, counts it taken if it is, and leaves
// the block unless it goes where execution falls through to anyway.
func branch(c *Core, s *step) status {
	r, u := &c.Ctx.Regs, s.u
	target := u.RIPNot
	switch {
	case u.SetFlags != 0 || u.Op < uops.OpBr || u.Op > uops.OpBrNZ:
		var flags uint64
		if target, flags, c.fault = uops.Exec(u, r[s.ra], r[s.rb]+s.imm, r[s.rc]); c.fault != uops.FaultNone {
			return stFault
		}
		if u.SetFlags != 0 {
			r[uops.RegFlags] = flags
		}
	case u.Op == uops.OpBr, u.Op == uops.OpBrcc && u.Cond.Eval(r[s.rc]),
		u.Op == uops.OpBrZ && r[s.ra] == 0, u.Op == uops.OpBrNZ && r[s.ra] != 0:
		target = u.RIPTaken
	case u.Op == uops.OpBrInd:
		target = r[s.ra] + uint64(u.Imm)
	}
	c.target = target
	if target != u.RIPNot {
		c.takenBranches.Inc()
	}
	if target != s.aux {
		c.Ctx.RIP = target
		return stLeft
	}
	return stNext
}

// assist runs a microcode assist, which always leaves the block. A
// phantom core refuses it: assists mutate domain state (hypercalls, CR
// writes) and the primary engine commits them outside the clean-commit
// path a shadow mirrors, so a shadow reaching one has diverged.
func assist(c *Core, s *step) status {
	if c.phantom {
		c.err = fmt.Errorf("seqcore: shadow reached microcode assist at rip %#x", s.u.RIP)
		return stError
	}
	c.Ctx.RIP = s.u.RIP
	if c.fault = vm.ExecAssist(c.Ctx, s.u, c.Sys, vm.NopCoreHooks{}); c.fault != uops.FaultNone {
		return stFault
	}
	return stAssist
}

func (c *Core) save(*step) status {
	c.saved = c.Ctx.Regs
	return stNext
}

func (c *Core) commit(*step) status {
	c.commitStores()
	return stNext
}

// malformed stands for a branch uop before its group's end, or a block
// whose last group has no end.
func malformed(c *Core, s *step) status {
	c.err = fmt.Errorf("seqcore: malformed uop group at rip %#x", s.u.RIP)
	return stError
}

// exec runs the steps of groups [from, to) of b. It returns the step
// that ended the run and how, or the first step of group to and stNext.
func (c *Core) exec(b *block, from, to int) (int, status) {
	end := int(b.groups[to].first)
	for i := int(b.groups[from].first); i < end; i++ {
		s := &b.steps[i]
		if st := s.run(c, s); st != stNext {
			return i, st
		}
	}
	return end, stNext
}

// execHooked is exec for a core with an observer or an event log: the
// same steps, each followed by the upcalls it owes.
func (c *Core) execHooked(b *block, from, to int) (int, status) {
	ctx, obs := c.Ctx, c.Obs
	if obs == nil {
		obs = noObserver{}
	}
	// The event log's clock is the committed-instruction count, which
	// the counters catch up with only when the run ends.
	clock := c.insns.Value() - int64(b.groups[from].insns)
	end := int(b.groups[to].first)
	for i := int(b.groups[from].first); i < end; i++ {
		s := &b.steps[i]
		st := s.run(c, s)
		if st >= stFault {
			return i, st
		}
		switch s.kind &^ kEOM {
		case kLoad:
			if pa, f := ctx.Translate(c.va, false, false); f == uops.FaultNone {
				obs.OnLoad(c.va, pa, s.size)
			}
		case kStore:
			ps := &c.stores[len(c.stores)-1]
			obs.OnStore(ps.VA, ps.PA, ps.Size)
		case kBranch:
			obs.OnBranch(s.u.RIP, c.target != s.u.RIPNot, c.target, s.u.Branch)
		}
		if g := &b.groups[s.group]; s.kind&kEOM != 0 && !g.noCount {
			obs.OnInsn(g.rip, ctx.Kernel, int(g.uops))
			if c.ev != nil {
				c.evCommit(clock+int64(b.groups[s.group+1].insns), g.rip, g.lastOp)
			}
		}
		if st != stNext {
			return i, st
		}
	}
	return end, stNext
}

// noObserver stands in for a nil Observer in the hooked loop.
type noObserver struct{}

func (noObserver) OnInsn(uint64, bool, int)                       {}
func (noObserver) OnLoad(uint64, uint64, uint8)                   {}
func (noObserver) OnStore(uint64, uint64, uint8)                  {}
func (noObserver) OnBranch(uint64, bool, uint64, uops.BranchKind) {}
func (noObserver) OnFetchBlock(uint64, uint64)                    {}
func (noObserver) OnAddressSpaceSwitch(uint64)                    {}

// run executes groups [from, to) of b, counts what completed, delivers
// a fault if a step raised one, and returns how it ended (stNext: at to).
func (c *Core) run(b *block, from, to int) (status, error) {
	c.Ctx.Regs[uops.RegZero] = 0
	exec := c.exec
	if c.Obs != nil || c.ev != nil {
		exec = c.execHooked
	}
	i, st := exec(b, from, to)
	if st == stNext {
		c.count(b, from, to)
		c.Ctx.RIP = b.groups[to].rip
		return st, nil
	}
	g := int(b.steps[i].group)
	if st < stFault {
		c.count(b, from, g+1)
		return st, nil
	}
	c.count(b, from, g)
	if st == stError {
		return st, c.err
	}
	// The faulting instruction does not complete, but its loads and
	// stores before the fault count, and so does an assist's uop.
	for j := int(b.groups[g].first); j < i; j++ {
		switch b.steps[j].kind &^ kEOM {
		case kLoad:
			c.loads.Inc()
		case kStore:
			c.storesC.Inc()
		}
	}
	if b.steps[i].u.Op == uops.OpAssist {
		c.uopsC.Inc()
	}
	c.rollback(b.groups[g].undo)
	return st, c.deliverFault(c.fault, b.steps[i].u.RIP)
}

// count adds the counters of the completed groups [from, to).
func (c *Core) count(b *block, from, to int) {
	lo, hi := &b.groups[from], &b.groups[to]
	c.insns.Add(int64(hi.insns - lo.insns))
	c.uopsC.Add(int64(hi.uopsBefore - lo.uopsBefore))
	c.loads.Add(int64(hi.loads - lo.loads))
	c.storesC.Add(int64(hi.stores - lo.stores))
	c.branches.Add(int64(hi.branches - lo.branches))
}

// limit returns the group at which a step bounded to n counted
// instructions stops (the sentinel if the block ends first).
func (b *block) limit(n int) int {
	g := 1
	for g < len(b.groups)-1 && int(b.groups[g].insns) < n {
		g++
	}
	return g
}
