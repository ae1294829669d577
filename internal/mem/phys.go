// Package mem implements the physical memory substrate of the full
// system simulator: machine pages addressed by MFN (machine frame
// number), 4-level x86-64 page tables, and the hardware page-table walk
// engine. As under Xen, a domain's physical pages are deliberately
// non-contiguous MFNs, so cache indexing and TLB behavior see realistic
// physical address patterns rather than a linear span from zero.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Page is one 4 KiB machine page.
type Page [PageSize]byte

// frame is one entry of the frame table: the page's backing store
// and, beside it so that a write's one lookup serves both, whether a
// host-side translation cache holds an entry derived from a PTE in it.
type frame struct {
	page      *Page
	pageTable bool
}

// PhysMem is the machine's physical memory: a sparse set of allocated
// machine pages. All simulator state (guest RAM, page tables, DMA
// buffers) lives here and is addressed physically.
type PhysMem struct {
	pages map[uint64]frame
	// xlateGen is the translation generation: it moves whenever a
	// cached translation (vm.Context's host-side cache) may have gone
	// stale — a write into a frame marked as a page table, or a page's
	// backing store replaced. See MarkPageTable.
	xlateGen uint64
	// MFN allocation state: a deterministic linear-congruential walk
	// over a window of frame numbers produces scattered MFNs like a
	// real hypervisor under memory pressure.
	nextSeq uint64
	salt    uint64
}

// NewPhysMem creates an empty physical memory.
func NewPhysMem() *PhysMem {
	return &PhysMem{pages: make(map[uint64]frame), salt: 0x9E3779B97F4A7C15}
}

// AllocPage allocates a fresh zeroed machine page and returns its MFN.
// Allocation order is deterministic but intentionally non-contiguous.
func (pm *PhysMem) AllocPage() uint64 {
	for {
		seq := pm.nextSeq
		pm.nextSeq++
		// Feistel-ish scatter within a 2^20-frame window (4 GiB of
		// physical space), keeping MFNs bounded but shuffled.
		h := seq * pm.salt
		mfn := (h>>44 ^ h>>20) & 0xFFFFF
		if _, ok := pm.pages[mfn]; ok {
			continue
		}
		pm.pages[mfn] = frame{page: &Page{}}
		return mfn
	}
}

// AllocPages allocates n pages and returns their MFNs.
func (pm *PhysMem) AllocPages(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = pm.AllocPage()
	}
	return out
}

// AllocCursor returns the allocator's sequence position, part of a
// checkpoint image: restoring it makes post-restore AllocPage calls
// produce the same scattered MFNs an uninterrupted run would.
func (pm *PhysMem) AllocCursor() uint64 { return pm.nextSeq }

// SetAllocCursor restores the allocator sequence position.
func (pm *PhysMem) SetAllocCursor(seq uint64) { pm.nextSeq = seq }

// ForEachPage visits every allocated page in ascending MFN order (a
// deterministic order, for serialization).
func (pm *PhysMem) ForEachPage(f func(mfn uint64, page *Page)) {
	mfns := make([]uint64, 0, len(pm.pages))
	for mfn := range pm.pages {
		mfns = append(mfns, mfn)
	}
	sort.Slice(mfns, func(i, j int) bool { return mfns[i] < mfns[j] })
	for _, mfn := range mfns {
		f(mfn, pm.pages[mfn].page)
	}
}

// InstallPage materializes a page at a specific MFN with the given
// contents (checkpoint restore). Shorter data is zero-padded. The
// frame gets a new backing store, so the translation generation moves:
// a cached *Page for this MFN would dangle.
func (pm *PhysMem) InstallPage(mfn uint64, data []byte) {
	p := &Page{}
	copy(p[:], data)
	pm.pages[mfn] = frame{page: p}
	pm.xlateGen++
}

// MarkPageTable records that a translation cache is about to hold an
// entry derived from a PTE in frame mfn: from now on every Write or
// WriteBytes touching the frame moves TranslationGen. This is the one
// write-side coherence hook of vm.Context's host-side translation
// cache, the same shape as bbcache.InvalidateStore's store-side SMC
// check; marks are sticky (a superset of the live page-table frames is
// safe).
func (pm *PhysMem) MarkPageTable(mfn uint64) {
	if f := pm.pages[mfn]; f.page != nil && !f.pageTable {
		f.pageTable = true
		pm.pages[mfn] = f
	}
}

// TranslationGen returns the translation generation. A translation
// cached at generation g, from a walk whose PTE frames were all marked
// before g was read, is still what a fresh walk would return while the
// generation equals g.
func (pm *PhysMem) TranslationGen() uint64 { return pm.xlateGen }

// Present reports whether mfn is an allocated machine page.
func (pm *PhysMem) Present(mfn uint64) bool {
	_, ok := pm.pages[mfn]
	return ok
}

// NumPages returns the number of allocated machine pages.
func (pm *PhysMem) NumPages() int { return len(pm.pages) }

// PagePtr returns the backing page for mfn, or nil if unallocated.
func (pm *PhysMem) PagePtr(mfn uint64) *Page { return pm.pages[mfn].page }

// errBadPhys formats an unmapped-physical-address error.
func errBadPhys(pa uint64) error {
	return fmt.Errorf("mem: access to unmapped physical address %#x (mfn %#x)", pa, pa>>PageShift)
}

// Read reads size bytes (at most 8) at physical address pa,
// zero-extended into a uint64. Accesses may cross page boundaries
// (hardware handles unaligned access transparently on x86), and odd
// sizes occur as the per-page halves of split page-crossing accesses.
func (pm *PhysMem) Read(pa uint64, size uint8) (uint64, error) {
	off := pa & PageMask
	if off+uint64(size) <= PageSize {
		page := pm.pages[pa>>PageShift].page
		if page == nil {
			return 0, errBadPhys(pa)
		}
		return page.Load(off, size), nil
	}
	// Page-crossing access: assemble byte by byte.
	var v uint64
	for i := uint8(0); i < size; i++ {
		page := pm.pages[(pa+uint64(i))>>PageShift].page
		if page == nil {
			return 0, errBadPhys(pa + uint64(i))
		}
		v |= uint64(page[(pa+uint64(i))&PageMask]) << (8 * i)
	}
	return v, nil
}

// Load reads size bytes (at most 8) at offset off of the page,
// zero-extended; off+size must not exceed PageSize. It is the read
// both PhysMem.Read and a translation-cache hit (which already holds
// the host page) end in.
func (p *Page) Load(off uint64, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(p[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:]))
	case 8:
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for i := uint64(0); i < uint64(size); i++ {
		v |= uint64(p[off+i]) << (8 * i)
	}
	return v
}

// Write writes the low size bytes of v at physical address pa.
func (pm *PhysMem) Write(pa uint64, v uint64, size uint8) error {
	off := pa & PageMask
	if off+uint64(size) <= PageSize {
		page := pm.writable(pa >> PageShift)
		if page == nil {
			return errBadPhys(pa)
		}
		switch size {
		case 1:
			page[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(page[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(page[off:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(page[off:], v)
		default:
			for i := uint8(0); i < size; i++ {
				page[off+uint64(i)] = byte(v >> (8 * i))
			}
		}
		return nil
	}
	for i := uint8(0); i < size; i++ {
		page := pm.writable((pa + uint64(i)) >> PageShift)
		if page == nil {
			return errBadPhys(pa + uint64(i))
		}
		page[(pa+uint64(i))&PageMask] = byte(v >> (8 * i))
	}
	return nil
}

// Store is one committed store: the low Size bytes of Val at virtual
// address VA. PA is the physical address of its first byte; a store
// that runs onto a second page (Crosses) goes on at PA2, the physical
// address of that page's first byte written. Both engines translate
// both pages when the store executes, so a store faults before any of
// its bytes is written.
type Store struct {
	VA, PA, PA2 uint64
	Val         uint64
	Size        uint8
}

// Crosses reports whether s runs onto a second page.
func (s Store) Crosses() bool { return s.PA&PageMask+uint64(s.Size) > PageSize }

// WriteStore writes s to physical memory, the bytes past the end of
// PA's page at PA2.
func (pm *PhysMem) WriteStore(s Store) error {
	if !s.Crosses() {
		return pm.Write(s.PA, s.Val, s.Size)
	}
	f := uint8(PageSize - s.PA&PageMask)
	if err := pm.Write(s.PA, s.Val, f); err != nil {
		return err
	}
	return pm.Write(s.PA2, s.Val>>(8*f), s.Size-f)
}

// writable returns the page a write to frame mfn lands in (nil if
// unallocated), moving the translation generation first when the frame
// is marked as a page table: every physical write goes through here.
func (pm *PhysMem) writable(mfn uint64) *Page {
	f := pm.pages[mfn]
	if f.pageTable {
		pm.xlateGen++
	}
	return f.page
}

// ReadBytes copies len(buf) bytes starting at physical address pa.
func (pm *PhysMem) ReadBytes(pa uint64, buf []byte) error {
	for n := 0; n < len(buf); {
		page := pm.pages[pa>>PageShift].page
		if page == nil {
			return errBadPhys(pa)
		}
		off := pa & PageMask
		c := copy(buf[n:], page[off:])
		n += c
		pa += uint64(c)
	}
	return nil
}

// WriteBytes copies buf into physical memory starting at pa (used by
// the domain builder and DMA injection).
func (pm *PhysMem) WriteBytes(pa uint64, buf []byte) error {
	for n := 0; n < len(buf); {
		page := pm.writable(pa >> PageShift)
		if page == nil {
			return errBadPhys(pa)
		}
		off := pa & PageMask
		c := copy(page[off:], buf[n:])
		n += c
		pa += uint64(c)
	}
	return nil
}
