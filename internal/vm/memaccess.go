package vm

import (
	"ptlsim/internal/mem"
	"ptlsim/internal/uops"
)

// The host-side translation cache: a simulator speed structure that
// mirrors nothing modelled (the out-of-order core's ITLB/DTLB and the
// K8 reference's TLBs are separate and keyed on FlushGen; this is
// not). One direct-mapped set per access class, because a class is
// what the walk that filled an entry has proven and done: a read or
// exec entry comes from a walk that set Accessed at every level (and
// checked NX, for exec), a write entry from one that checked Writable
// and set Dirty at the leaf. Classes never serve each other, and the
// user/kernel bit is part of the tag. DESIGN.md §5 "Host-side
// translation cache" has the equivalence argument.
const xlateEntries = 128

const (
	xlateRead = iota
	xlateWrite
	xlateExec
	xlateClasses
)

// xlateEntry maps (virtual page, user/kernel, CR3) to the frame and its
// host page, valid while PhysMem's translation generation equals gen.
type xlateEntry struct {
	tag  uint64 // virtual page number << 1 | user
	cr3  uint64
	gen  uint64
	mfn  uint64
	page *mem.Page // nil: empty slot
}

type xlateCache [xlateClasses][xlateEntries]xlateEntry

// xlateIndex is the one slot of a set that va under cr3 can occupy.
// CR3 is folded in so that processes laid out at the same virtual
// addresses do not evict each other.
func xlateIndex(va, cr3 uint64) uint64 {
	return (va ^ cr3) >> mem.PageShift & (xlateEntries - 1)
}

// Translate translates va under this context's CR3 and privilege: the
// cached entry point of the functional memory path (mem.Walk is the
// uncached walk underneath it, which the out-of-order core's modelled
// TLB-miss path calls directly). A hit in the host-side translation
// cache returns exactly what the walk it stands for would return and
// leaves memory as that walk would; a miss walks, updating the A/D
// tracking bits as the microcoded walker does on real hardware, and a
// fault sets CR2.
func (c *Context) Translate(va uint64, write, exec bool) (uint64, uops.Fault) {
	_, pa, fault := c.translate(va, write, exec)
	return pa, fault
}

// translate is Translate returning the frame's host page as well (nil
// when the PTE names a frame that is not allocated). It is the only
// function that consults or fills the cache; every *Virt* helper and
// FetchCode go through it.
//
// Coherence is with memory, not with the guest's TLB flushes: a fill
// marks the frames the walk read PTEs from (PhysMem.MarkPageTable), so
// any later physical write into one of them — hypercall, domain
// builder, fault injection, the guest's own store, another VCPU —
// moves PhysMem.TranslationGen and the entry stops matching. The
// generation is read after the walk: the walk's own A/D write-backs
// into already-marked frames move it too (once per newly touched page).
func (c *Context) translate(va uint64, write, exec bool) (*mem.Page, uint64, uops.Fault) {
	pm := c.M.PM
	tag := va >> mem.PageShift << 1
	if !c.Kernel {
		tag |= 1
	}
	var e *xlateEntry
	// A clone has no cache, and no caller asks for write+exec, which
	// no single class covers: both walk.
	if c.xlate != nil && !(write && exec) {
		cls := xlateRead
		if exec {
			cls = xlateExec
		} else if write {
			cls = xlateWrite
		}
		e = &c.xlate[cls][xlateIndex(va, c.CR3)]
		if e.tag == tag && e.cr3 == c.CR3 && e.gen == pm.TranslationGen() && e.page != nil {
			return e.page, e.mfn<<mem.PageShift | va&mem.PageMask, uops.FaultNone
		}
	}
	acc := mem.Access{Write: write, Exec: exec, User: !c.Kernel, SetAD: true}
	w := mem.Walk(pm, c.CR3, va, acc)
	if w.Fault != uops.FaultNone {
		c.CR2 = va
		return nil, 0, w.Fault
	}
	page := pm.PagePtr(w.MFN)
	if e != nil && page != nil {
		for _, pteAddr := range w.PTEAddrs[:w.Depth] {
			pm.MarkPageTable(pteAddr >> mem.PageShift)
		}
		*e = xlateEntry{tag: tag, cr3: c.CR3, gen: pm.TranslationGen(), mfn: w.MFN, page: page}
	}
	return page, w.PhysAddr(va), uops.FaultNone
}

// splitAt returns how many bytes of an access at va fit on its page.
func splitAt(va uint64, size uint8) uint8 {
	left := mem.PageSize - va&mem.PageMask
	if uint64(size) <= left {
		return size
	}
	return uint8(left)
}

// ReadVirt reads size bytes (1/2/4/8) at guest virtual address va,
// handling page-crossing accesses with two translations, exactly as
// the unaligned-capable load unit does.
func (c *Context) ReadVirt(va uint64, size uint8) (uint64, uops.Fault) {
	first := splitAt(va, size)
	page, pa, fault := c.translate(va, false, false)
	if fault != uops.FaultNone {
		return 0, fault
	}
	if first == size {
		if page == nil {
			c.CR2 = va
			return 0, uops.FaultPageRead
		}
		return page.Load(pa&mem.PageMask, size), uops.FaultNone
	}
	if page == nil {
		return 0, uops.FaultPageRead
	}
	lo := page.Load(pa&mem.PageMask, first)
	page2, pa2, fault := c.translate(va+uint64(first), false, false)
	if fault != uops.FaultNone {
		return 0, fault
	}
	if page2 == nil {
		return 0, uops.FaultPageRead
	}
	hi := page2.Load(pa2&mem.PageMask, size-first)
	return lo | hi<<(8*first), uops.FaultNone
}

// WriteVirt writes the low size bytes of v at guest virtual va. A
// page-crossing write translates both pages before it writes a byte,
// as the store units do.
func (c *Context) WriteVirt(va, v uint64, size uint8) uops.Fault {
	s := mem.Store{VA: va, Val: v, Size: size}
	var fault uops.Fault
	if s.PA, fault = c.Translate(va, true, false); fault != uops.FaultNone {
		return fault
	}
	if first := splitAt(va, size); first < size {
		if s.PA2, fault = c.Translate(va+uint64(first), true, false); fault != uops.FaultNone {
			return fault
		}
	}
	if err := c.M.PM.WriteStore(s); err != nil {
		return uops.FaultPageWrite
	}
	return uops.FaultNone
}

// FetchCode reads up to len(buf) instruction bytes at va, stopping at
// an unmapped or non-executable page. It returns the contiguous byte
// count readable from va's page onward (at least enough for the basic
// block builder to decode page-crossing instructions when the next
// page is mapped).
func (c *Context) FetchCode(va uint64, buf []byte) (int, uops.Fault) {
	total := 0
	for total < len(buf) {
		pa, fault := c.Translate(va+uint64(total), false, true)
		if fault != uops.FaultNone {
			if total == 0 {
				return 0, fault
			}
			return total, uops.FaultNone
		}
		n := int(mem.PageSize - pa&mem.PageMask)
		if n > len(buf)-total {
			n = len(buf) - total
		}
		if err := c.M.PM.ReadBytes(pa, buf[total:total+n]); err != nil {
			if total == 0 {
				return 0, uops.FaultPageExec
			}
			return total, uops.FaultNone
		}
		total += n
	}
	return total, uops.FaultNone
}

// ReadVirtBytes copies a byte range from guest virtual memory (used by
// the hypervisor for console I/O and device DMA emulation).
func (c *Context) ReadVirtBytes(va uint64, buf []byte) uops.Fault {
	for i := 0; i < len(buf); {
		pa, fault := c.Translate(va+uint64(i), false, false)
		if fault != uops.FaultNone {
			return fault
		}
		n := int(mem.PageSize - pa&mem.PageMask)
		if n > len(buf)-i {
			n = len(buf) - i
		}
		if err := c.M.PM.ReadBytes(pa, buf[i:i+n]); err != nil {
			return uops.FaultPageRead
		}
		i += n
	}
	return uops.FaultNone
}

// WriteVirtBytes copies a byte range into guest virtual memory. Like
// WriteVirt, it translates every page of the range before it writes a
// byte, so a range that faults leaves memory as it was.
func (c *Context) WriteVirtBytes(va uint64, buf []byte) uops.Fault {
	for write := range 2 {
		for i := 0; i < len(buf); {
			pa, fault := c.Translate(va+uint64(i), true, false)
			if fault != uops.FaultNone {
				return fault
			}
			n := min(int(mem.PageSize-pa&mem.PageMask), len(buf)-i)
			if write == 1 && c.M.PM.WriteBytes(pa, buf[i:i+n]) != nil {
				return uops.FaultPageWrite
			}
			i += n
		}
	}
	return uops.FaultNone
}
