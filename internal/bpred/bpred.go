// Package bpred implements the configurable branch prediction models
// described in the paper: bimodal and gshare direction predictors built
// from 2-bit saturating counters, a hybrid predictor with a meta
// chooser, a branch target buffer for indirect branches, and a return
// address stack with speculative checkpointing. The K8 configuration in
// Table 1 uses a 16K-entry gshare-like global-history predictor.
package bpred

import "fmt"

// Kind selects the direction predictor algorithm.
type Kind uint8

// Direction predictor kinds.
const (
	KindBimodal Kind = iota
	KindGshare
	KindHybrid
	KindStatic // always predict not-taken (ablation baseline)
)

// Config sets the predictor geometry.
type Config struct {
	Kind       Kind
	TableBits  uint // log2 of counter table entries
	HistBits   uint // global history length (gshare/hybrid)
	BTBEntries int
	BTBAssoc   int
	RASEntries int
}

// Validate checks the predictor geometry so bad CLI flags produce a
// usable message instead of a stack trace at construction time.
func (c Config) Validate() error {
	if c.TableBits > 28 {
		return fmt.Errorf("bpred: table bits %d too large (max 28)", c.TableBits)
	}
	if c.HistBits > 63 {
		return fmt.Errorf("bpred: history bits %d too large (max 63)", c.HistBits)
	}
	if c.BTBEntries <= 0 {
		return fmt.Errorf("bpred: BTB entries %d must be positive", c.BTBEntries)
	}
	assoc := c.BTBAssoc
	if assoc <= 0 {
		assoc = 1
	}
	if c.BTBEntries%assoc != 0 {
		return fmt.Errorf("bpred: BTB entries %d not a multiple of associativity %d", c.BTBEntries, assoc)
	}
	nsets := c.BTBEntries / assoc
	if nsets&(nsets-1) != 0 {
		return fmt.Errorf("bpred: BTB set count %d (entries %d / assoc %d) must be a power of two",
			nsets, c.BTBEntries, assoc)
	}
	if c.RASEntries < 0 {
		return fmt.Errorf("bpred: RAS entries %d must be non-negative", c.RASEntries)
	}
	return nil
}

// DefaultConfig is a modest hybrid predictor.
func DefaultConfig() Config {
	return Config{Kind: KindHybrid, TableBits: 12, HistBits: 12,
		BTBEntries: 1024, BTBAssoc: 4, RASEntries: 16}
}

// K8Config approximates the Athlon 64's 16K-entry global history
// (gshare-like) predictor used for the Table 1 experiment.
func K8Config() Config {
	return Config{Kind: KindGshare, TableBits: 14, HistBits: 12,
		BTBEntries: 2048, BTBAssoc: 4, RASEntries: 12}
}

// counterTable is a table of 2-bit saturating counters initialized to
// weakly not-taken.
type counterTable struct {
	ctr  []uint8
	mask uint64
}

func newCounterTable(bits uint) *counterTable {
	n := 1 << bits
	t := &counterTable{ctr: make([]uint8, n), mask: uint64(n - 1)}
	for i := range t.ctr {
		t.ctr[i] = 1
	}
	return t
}

func (t *counterTable) predict(idx uint64) bool { return t.ctr[idx&t.mask] >= 2 }

func (t *counterTable) update(idx uint64, taken bool) {
	c := &t.ctr[idx&t.mask]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Predictor is the full branch prediction unit attached to one
// hardware thread's fetch stage.
type Predictor struct {
	cfg    Config
	bim    *counterTable
	gsh    *counterTable
	meta   *counterTable // chooser: >=2 means "use gshare"
	ghr    uint64
	ghrMsk uint64
	btb    *BTB
	ras    *RAS
}

// New builds a predictor from cfg.
func New(cfg Config) *Predictor {
	p := &Predictor{cfg: cfg, ghrMsk: (1 << cfg.HistBits) - 1}
	switch cfg.Kind {
	case KindBimodal:
		p.bim = newCounterTable(cfg.TableBits)
	case KindGshare:
		p.gsh = newCounterTable(cfg.TableBits)
	case KindHybrid:
		p.bim = newCounterTable(cfg.TableBits)
		p.gsh = newCounterTable(cfg.TableBits)
		p.meta = newCounterTable(cfg.TableBits)
	}
	if cfg.BTBEntries > 0 {
		p.btb = NewBTB(cfg.BTBEntries, cfg.BTBAssoc)
	}
	p.ras = NewRAS(cfg.RASEntries)
	return p
}

func (p *Predictor) gshareIndex(pc uint64) uint64 {
	return (pc >> 2) ^ (p.ghr & p.ghrMsk)
}

// PredictDirection predicts a conditional branch at pc and returns the
// prediction plus a recovery snapshot of the global history to restore
// on a misprediction.
func (p *Predictor) PredictDirection(pc uint64) (taken bool, snapshot uint64) {
	snapshot = p.ghr
	switch p.cfg.Kind {
	case KindBimodal:
		taken = p.bim.predict(pc >> 2)
	case KindGshare:
		taken = p.gsh.predict(p.gshareIndex(pc))
	case KindHybrid:
		if p.meta.predict(pc >> 2) {
			taken = p.gsh.predict(p.gshareIndex(pc))
		} else {
			taken = p.bim.predict(pc >> 2)
		}
	case KindStatic:
		taken = false
	}
	// Speculatively shift the prediction into the history.
	p.ghr = p.ghr<<1 | b2u(taken)
	return taken, snapshot
}

// Update trains the predictor with the resolved outcome of the branch
// at pc. snapshot is the value returned by PredictDirection, needed to
// reconstruct the history the prediction was made under.
func (p *Predictor) Update(pc uint64, taken bool, snapshot uint64) {
	switch p.cfg.Kind {
	case KindBimodal:
		p.bim.update(pc>>2, taken)
	case KindGshare:
		idx := (pc >> 2) ^ (snapshot & p.ghrMsk)
		p.gsh.update(idx, taken)
	case KindHybrid:
		gIdx := (pc >> 2) ^ (snapshot & p.ghrMsk)
		bCorrect := p.bim.predict(pc>>2) == taken
		gCorrect := p.gsh.predict(gIdx) == taken
		if bCorrect != gCorrect {
			p.meta.update(pc>>2, gCorrect)
		}
		p.bim.update(pc>>2, taken)
		p.gsh.update(gIdx, taken)
	}
}

// Recover restores the global history after a misprediction: the
// snapshot is from prediction time, and outcome is the actual
// direction, which is shifted back in.
func (p *Predictor) Recover(snapshot uint64, outcome bool) {
	p.ghr = snapshot<<1 | b2u(outcome)
}

// BTBLookup predicts the target of a taken or indirect branch.
func (p *Predictor) BTBLookup(pc uint64) (uint64, bool) {
	if p.btb == nil {
		return 0, false
	}
	return p.btb.Lookup(pc)
}

// BTBUpdate records the resolved target of a branch.
func (p *Predictor) BTBUpdate(pc, target uint64) {
	if p.btb != nil {
		p.btb.Update(pc, target)
	}
}

// RAS exposes the return address stack.
func (p *Predictor) RAS() *RAS { return p.ras }

// Scramble deterministically fills the direction-prediction state
// (counter tables and global history) from seed. It varies only
// microarchitectural timing — mispredictions recover to the committed
// path — so conformance fuzzing uses it to run the same program under
// different predictor warm-ups and assert the architectural trajectory
// is invariant. BTB and RAS are left cold: they hold code addresses,
// and seeding them with arbitrary targets would just fabricate
// speculation into unmapped memory.
func (p *Predictor) Scramble(seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		// splitmix64: cheap, full-period, stateless beyond x.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for _, t := range []*counterTable{p.bim, p.gsh, p.meta} {
		if t == nil {
			continue
		}
		for i := range t.ctr {
			t.ctr[i] = uint8(next() & 3)
		}
	}
	p.ghr = next() & p.ghrMsk
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a set-associative branch target buffer.
type BTB struct {
	sets    [][]btbWay
	setMask uint64
	stamp   uint64
}

type btbWay struct {
	tag    uint64
	target uint64
	valid  bool
	lru    uint64
}

// NewBTB builds a BTB with the given entries and associativity.
func NewBTB(entries, assoc int) *BTB {
	if assoc <= 0 {
		assoc = 1
	}
	nsets := entries / assoc
	if nsets <= 0 {
		nsets = 1
	}
	// Ill-formed geometries (see Config.Validate) round up to the next
	// power-of-two set count; validated configs never trigger this.
	for nsets&(nsets-1) != 0 {
		nsets++
	}
	b := &BTB{sets: make([][]btbWay, nsets), setMask: uint64(nsets - 1)}
	for i := range b.sets {
		b.sets[i] = make([]btbWay, assoc)
	}
	return b
}

// Lookup returns the predicted target for the branch at pc.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	set := b.sets[(pc>>2)&b.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			b.stamp++
			set[i].lru = b.stamp
			return set[i].target, true
		}
	}
	return 0, false
}

// Update installs or refreshes the target for the branch at pc.
func (b *BTB) Update(pc, target uint64) {
	set := b.sets[(pc>>2)&b.setMask]
	b.stamp++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			set[i].target = target
			set[i].lru = b.stamp
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbWay{tag: pc, target: target, valid: true, lru: b.stamp}
}

// RAS is a circular return address stack with full-copy checkpointing
// for speculative recovery (small enough that copying is cheap). The
// copies live in a ring allocated once: taking a checkpoint allocates
// nothing, and the ring is large enough as long as the owner keeps no
// more checkpoints alive than it reserved and rewinds the ring when it
// discards the newest ones (see Rewind).
type RAS struct {
	stack []uint64
	top   int

	// Checkpoint ring: slot i holds a copy of the stack in
	// ckptStack[i*len(stack):] and of top in ckptTop[i]. The slot count
	// is a power of two so that the running ordinal nckpt maps to a
	// slot with a mask and may wrap around uint32 harmlessly.
	ckptStack []uint64
	ckptTop   []int32
	ckptMask  uint32
	nckpt     uint32 // ordinal the next checkpoint will get
}

// RASSnapshot identifies a RAS checkpoint: the ordinal it was taken
// under. Consecutive checkpoints have consecutive ordinals.
type RASSnapshot uint32

// NewRAS creates a return address stack of the given depth with room
// for a single checkpoint; ReserveCheckpoints makes room for more.
func NewRAS(entries int) *RAS {
	if entries <= 0 {
		entries = 1
	}
	r := &RAS{stack: make([]uint64, entries)}
	r.ReserveCheckpoints(1)
	return r
}

// ReserveCheckpoints sizes the checkpoint ring so that at least n
// checkpoints can be alive at once (rounded up to a power of two). It
// discards every checkpoint taken so far.
func (r *RAS) ReserveCheckpoints(n int) {
	slots := 1
	for slots < n {
		slots <<= 1
	}
	r.ckptStack = make([]uint64, slots*len(r.stack))
	r.ckptTop = make([]int32, slots)
	r.ckptMask = uint32(slots - 1)
	r.nckpt = 0
}

// Push records a return address at a call.
func (r *RAS) Push(ret uint64) {
	r.top++
	if r.top == len(r.stack) {
		r.top = 0
	}
	r.stack[r.top] = ret
}

// Pop predicts the target of a return.
func (r *RAS) Pop() uint64 {
	v := r.stack[r.top]
	if r.top == 0 {
		r.top = len(r.stack)
	}
	r.top--
	return v
}

// Snapshot captures the full RAS state for misspeculation recovery in
// the next ring slot. The checkpoint stays restorable until as many
// further checkpoints as the ring has slots have been taken on top of
// it without a Rewind.
func (r *RAS) Snapshot() RASSnapshot {
	s := r.nckpt
	i := int(s & r.ckptMask)
	copy(r.ckptStack[i*len(r.stack):], r.stack)
	r.ckptTop[i] = int32(r.top)
	r.nckpt++
	return RASSnapshot(s)
}

// Restore rewinds the RAS to a snapshot. The checkpoint ring itself is
// left alone: the snapshot, and those taken after it, stay restorable.
func (r *RAS) Restore(s RASSnapshot) {
	i := int(uint32(s) & r.ckptMask)
	r.top = int(r.ckptTop[i])
	copy(r.stack, r.ckptStack[i*len(r.stack):(i+1)*len(r.stack)])
}

// Rewind discards checkpoint s and every checkpoint taken after it, so
// that their ring slots are the next to be reused. An owner that
// squashes its youngest speculative work calls this with the oldest
// checkpoint it squashed; the ring then never holds more than the
// owner's live checkpoints between its oldest live one and the next
// slot, however often speculation is squashed and redone.
func (r *RAS) Rewind(s RASSnapshot) { r.nckpt = uint32(s) }

// AuditCheckpoints checks the owner's view of the checkpoint ring
// against the RAS's: the owner holds live checkpoints with consecutive
// ordinals starting at oldest, and they must be the newest ones taken
// and fit in the ring (or an older one has been overwritten).
func (r *RAS) AuditCheckpoints(oldest RASSnapshot, live int) error {
	if live == 0 {
		return nil
	}
	if live > len(r.ckptTop) {
		return fmt.Errorf("bpred: %d live RAS checkpoints in a ring of %d", live, len(r.ckptTop))
	}
	if uint32(oldest)+uint32(live) != r.nckpt {
		return fmt.Errorf("bpred: live RAS checkpoints [%d,+%d) do not end at the next ordinal %d",
			oldest, live, r.nckpt)
	}
	return nil
}

// Audit checks the stack's structural bounds: the top pointer must
// index a live slot. Push/Pop keep it in range by construction, so a
// violation means the predictor state was corrupted in place.
func (r *RAS) Audit() error {
	if len(r.stack) == 0 {
		return fmt.Errorf("bpred: RAS has no storage")
	}
	if r.top < 0 || r.top >= len(r.stack) {
		return fmt.Errorf("bpred: RAS top %d out of bounds [0,%d)", r.top, len(r.stack))
	}
	return nil
}
