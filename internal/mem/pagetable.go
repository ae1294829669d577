package mem

import (
	"fmt"

	"ptlsim/internal/uops"
)

// x86-64 page table entry bits.
const (
	PTEPresent  uint64 = 1 << 0
	PTEWritable uint64 = 1 << 1
	PTEUser     uint64 = 1 << 2
	PTEAccessed uint64 = 1 << 5
	PTEDirty    uint64 = 1 << 6
	PTENX       uint64 = 1 << 63

	// PTEAddrMask extracts the physical frame address from a PTE.
	PTEAddrMask uint64 = 0x000FFFFFFFFFF000
)

// Levels in the x86-64 long-mode page table tree.
const PTLevels = 4

// vaIndex extracts the 9-bit table index for the given level
// (level 3 = PML4 ... level 0 = PT).
func vaIndex(va uint64, level int) uint64 {
	return (va >> (PageShift + 9*uint(level))) & 0x1FF
}

// Canonical reports whether va is a canonical x86-64 virtual address
// (bits 63..48 are copies of bit 47).
func Canonical(va uint64) bool {
	top := int64(va) >> 47
	return top == 0 || top == -1
}

// AddressSpace manages one guest address space: a 4-level page table
// tree rooted at CR3. The domain builder uses it to construct each
// process's mappings, and the hypervisor substrate uses it to service
// paravirtual MMU-update hypercalls.
type AddressSpace struct {
	pm  *PhysMem
	cr3 uint64 // physical address of the PML4 page
}

// NewAddressSpace allocates an empty page table tree.
func NewAddressSpace(pm *PhysMem) *AddressSpace {
	root := pm.AllocPage()
	return &AddressSpace{pm: pm, cr3: root << PageShift}
}

// CR3 returns the physical address of the root table, the value the
// guest loads into the CR3 control register.
func (as *AddressSpace) CR3() uint64 { return as.cr3 }

// Map installs a translation va -> mfn with the given PTE flag bits
// (PTEPresent is implied). Intermediate tables are allocated on demand
// with user+writable permissions (leaf PTEs carry the real policy).
func (as *AddressSpace) Map(va, mfn, flags uint64) error {
	if !Canonical(va) {
		return fmt.Errorf("mem: mapping non-canonical va %#x", va)
	}
	if va&PageMask != 0 {
		return fmt.Errorf("mem: mapping unaligned va %#x", va)
	}
	tbl := as.cr3
	for level := PTLevels - 1; level > 0; level-- {
		idx := vaIndex(va, level)
		pteAddr := tbl + idx*8
		pte, err := as.pm.Read(pteAddr, 8)
		if err != nil {
			return err
		}
		if pte&PTEPresent == 0 {
			next := as.pm.AllocPage()
			pte = next<<PageShift | PTEPresent | PTEWritable | PTEUser
			if err := as.pm.Write(pteAddr, pte, 8); err != nil {
				return err
			}
		}
		tbl = pte & PTEAddrMask
	}
	leaf := tbl + vaIndex(va, 0)*8
	return as.pm.Write(leaf, mfn<<PageShift|flags|PTEPresent, 8)
}

// MapRange maps n consecutive pages starting at va onto the given MFNs.
func (as *AddressSpace) MapRange(va uint64, mfns []uint64, flags uint64) error {
	for i, mfn := range mfns {
		if err := as.Map(va+uint64(i)<<PageShift, mfn, flags); err != nil {
			return err
		}
	}
	return nil
}

// ShareTopLevel copies one PML4 slot from another address space, so
// both spaces share the entire 512 GiB subtree under it. This is how
// the guest kernel is mapped into every process address space through
// a single shared page-table subtree, as real x86-64 kernels do.
func (as *AddressSpace) ShareTopLevel(from *AddressSpace, index int) error {
	if index < 0 || index >= 512 {
		return fmt.Errorf("mem: bad PML4 index %d", index)
	}
	pte, err := as.pm.Read(from.cr3+uint64(index)*8, 8)
	if err != nil {
		return err
	}
	return as.pm.Write(as.cr3+uint64(index)*8, pte, 8)
}

// Unmap removes the translation for va (clears the leaf PTE).
func (as *AddressSpace) Unmap(va uint64) error {
	w := Walk(as.pm, as.cr3, va, Access{})
	if w.Fault != uops.FaultNone {
		return fmt.Errorf("mem: unmap of unmapped va %#x", va)
	}
	return as.pm.Write(w.PTEAddrs[w.Depth-1], 0, 8)
}

// LeafPTEAddr returns the physical address of the leaf PTE mapping va,
// walking (and requiring) present intermediate levels.
func (as *AddressSpace) LeafPTEAddr(va uint64) (uint64, error) {
	tbl := as.cr3
	for level := PTLevels - 1; level > 0; level-- {
		pte, err := as.pm.Read(tbl+vaIndex(va, level)*8, 8)
		if err != nil {
			return 0, err
		}
		if pte&PTEPresent == 0 {
			return 0, fmt.Errorf("mem: no mapping for va %#x at level %d", va, level)
		}
		tbl = pte & PTEAddrMask
	}
	return tbl + vaIndex(va, 0)*8, nil
}

// Access describes the kind of memory access being translated.
type Access struct {
	Write bool // store (needs PTEWritable, sets PTEDirty)
	User  bool // CPL 3 access (needs PTEUser)
	Exec  bool // instruction fetch (honors PTENX)
	SetAD bool // update accessed/dirty tracking bits during the walk
}

// WalkResult is the outcome of a page table walk. PTEAddrs lists the
// physical addresses of the PTEs touched, in walk order: the cycle
// accurate core issues these as a chain of dependent loads through the
// data cache, which is how TLB-miss latency emerges from the model
// rather than being a fixed constant.
type WalkResult struct {
	PTEAddrs [PTLevels]uint64
	Depth    int    // number of levels actually read
	PTE      uint64 // leaf PTE value (if reached)
	MFN      uint64 // translated machine frame number
	Fault    uops.Fault
}

// PhysAddr combines the walk result with the page offset of va.
func (w *WalkResult) PhysAddr(va uint64) uint64 {
	return w.MFN<<PageShift | va&PageMask
}

// Walk performs a full hardware page table walk for va in the address
// space rooted at cr3 (a physical address). It checks permissions at
// the leaf and optionally updates A/D bits, exactly as the microcoded
// walker in the modeled processor does.
//
// Walk is the uncached walk: every call reads up to four PTEs. The
// functional memory path does not call it per access — it goes through
// vm.Context.Translate, the cached entry point, which walks only on a
// miss of its host-side translation cache. Direct callers are the
// out-of-order core's modelled TLB-miss path, which needs the PTE
// addresses, and address-space maintenance.
func Walk(pm *PhysMem, cr3, va uint64, acc Access) WalkResult {
	var w WalkResult
	if !Canonical(va) {
		w.Fault = pageFaultKind(acc)
		return w
	}
	tbl := cr3 & PTEAddrMask
	for level := PTLevels - 1; level >= 0; level-- {
		pteAddr := tbl + vaIndex(va, level)*8
		w.PTEAddrs[w.Depth] = pteAddr
		w.Depth++
		pte, err := pm.Read(pteAddr, 8)
		if err != nil {
			w.Fault = pageFaultKind(acc)
			return w
		}
		if pte&PTEPresent == 0 {
			w.Fault = pageFaultKind(acc)
			return w
		}
		if level == 0 {
			if acc.Write && pte&PTEWritable == 0 {
				w.Fault = uops.FaultPageWrite
				return w
			}
			if acc.User && pte&PTEUser == 0 {
				w.Fault = pageFaultKind(acc)
				return w
			}
			if acc.Exec && pte&PTENX != 0 {
				w.Fault = uops.FaultPageExec
				return w
			}
			if acc.SetAD {
				upd := pte | PTEAccessed
				if acc.Write {
					upd |= PTEDirty
				}
				if upd != pte {
					if err := pm.Write(pteAddr, upd, 8); err != nil {
						w.Fault = pageFaultKind(acc)
						return w
					}
					pte = upd
				}
			}
			w.PTE = pte
			w.MFN = pte & PTEAddrMask >> PageShift
			return w
		}
		if acc.SetAD && pte&PTEAccessed == 0 {
			if err := pm.Write(pteAddr, pte|PTEAccessed, 8); err != nil {
				w.Fault = pageFaultKind(acc)
				return w
			}
		}
		tbl = pte & PTEAddrMask
	}
	return w
}

func pageFaultKind(acc Access) uops.Fault {
	switch {
	case acc.Exec:
		return uops.FaultPageExec
	case acc.Write:
		return uops.FaultPageWrite
	default:
		return uops.FaultPageRead
	}
}
