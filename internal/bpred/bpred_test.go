package bpred

import (
	"math/rand"
	"testing"
)

// train runs a (pc, outcome) trace through the predictor and returns
// the accuracy over the final quarter of the trace (after warmup).
func train(p *Predictor, trace func(i int) (pc uint64, taken bool), n int) float64 {
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		pc, actual := trace(i)
		pred, snap := p.PredictDirection(pc)
		if pred != actual {
			p.Recover(snap, actual)
		}
		p.Update(pc, actual, snap)
		if i >= n*3/4 {
			counted++
			if pred == actual {
				correct++
			}
		}
	}
	return float64(correct) / float64(counted)
}

func TestBimodalLearnsBias(t *testing.T) {
	p := New(Config{Kind: KindBimodal, TableBits: 10, RASEntries: 8})
	acc := train(p, func(i int) (uint64, bool) {
		// Two branches: one always taken, one always not.
		if i%2 == 0 {
			return 0x1004, true
		}
		return 0x2008, false
	}, 400)
	if acc < 0.99 {
		t.Fatalf("bimodal accuracy on biased branches = %v", acc)
	}
}

func TestBimodalHysteresis(t *testing.T) {
	p := New(Config{Kind: KindBimodal, TableBits: 10, RASEntries: 8})
	// Saturate taken.
	for i := 0; i < 10; i++ {
		_, snap := p.PredictDirection(0x1000)
		p.Update(0x1000, true, snap)
	}
	// One not-taken blip must not flip the prediction (2-bit counter).
	_, snap := p.PredictDirection(0x1000)
	p.Update(0x1000, false, snap)
	pred, snap := p.PredictDirection(0x1000)
	p.Update(0x1000, true, snap)
	if !pred {
		t.Fatal("single blip flipped a saturated 2-bit counter")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	p := New(Config{Kind: KindGshare, TableBits: 12, HistBits: 8, RASEntries: 8})
	// Period-3 pattern T T N, unlearnable by bimodal alone.
	pattern := []bool{true, true, false}
	acc := train(p, func(i int) (uint64, bool) {
		return 0x4000, pattern[i%3]
	}, 3000)
	if acc < 0.95 {
		t.Fatalf("gshare accuracy on TTN pattern = %v", acc)
	}
}

func TestBimodalCannotLearnPattern(t *testing.T) {
	p := New(Config{Kind: KindBimodal, TableBits: 12, RASEntries: 8})
	pattern := []bool{true, true, false}
	acc := train(p, func(i int) (uint64, bool) {
		return 0x4000, pattern[i%3]
	}, 3000)
	if acc > 0.9 {
		t.Fatalf("bimodal should not learn a period-3 pattern (acc=%v)", acc)
	}
}

func TestHybridBeatsComponentsOnMixedWorkload(t *testing.T) {
	// Workload: some branches patterned (favor gshare), some noisy but
	// biased (favor bimodal since pattern history is polluted).
	mk := func(kind Kind) float64 {
		p := New(Config{Kind: kind, TableBits: 12, HistBits: 10, RASEntries: 8})
		r := rand.New(rand.NewSource(5))
		pattern := []bool{true, false}
		return train(p, func(i int) (uint64, bool) {
			switch i % 3 {
			case 0:
				return 0x1000, pattern[(i/3)%2]
			case 1:
				return 0x2000, r.Float64() < 0.95
			default:
				return 0x3000, true
			}
		}, 6000)
	}
	hybrid := mk(KindHybrid)
	if hybrid < 0.85 {
		t.Fatalf("hybrid accuracy = %v", hybrid)
	}
}

func TestStaticPredictsNotTaken(t *testing.T) {
	p := New(Config{Kind: KindStatic, RASEntries: 4})
	taken, _ := p.PredictDirection(0x1234)
	if taken {
		t.Fatal("static predictor must predict not-taken")
	}
}

func TestRecoverRestoresHistory(t *testing.T) {
	p := New(Config{Kind: KindGshare, TableBits: 10, HistBits: 8, RASEntries: 4})
	// Make several predictions, then recover to the first snapshot.
	_, snap0 := p.PredictDirection(0x100)
	p.PredictDirection(0x200)
	p.PredictDirection(0x300)
	p.Recover(snap0, true)
	if p.ghr != snap0<<1|1 {
		t.Fatalf("ghr = %#x, want %#x", p.ghr, snap0<<1|1)
	}
}

func TestBTBBasics(t *testing.T) {
	b := NewBTB(64, 4)
	if _, ok := b.Lookup(0x1000); ok {
		t.Fatal("empty BTB should miss")
	}
	b.Update(0x1000, 0x2000)
	tgt, ok := b.Lookup(0x1000)
	if !ok || tgt != 0x2000 {
		t.Fatalf("lookup = %#x %v", tgt, ok)
	}
	b.Update(0x1000, 0x3000)
	tgt, _ = b.Lookup(0x1000)
	if tgt != 0x3000 {
		t.Fatalf("update in place = %#x", tgt)
	}
}

func TestBTBEviction(t *testing.T) {
	b := NewBTB(4, 4) // one set
	for i := uint64(0); i < 5; i++ {
		b.Update(0x1000+i*4, 0x9000+i)
	}
	hits := 0
	for i := uint64(0); i < 5; i++ {
		if _, ok := b.Lookup(0x1000 + i*4); ok {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("4-way set should hold exactly 4 of 5: %d", hits)
	}
}

func TestRASMatchedCalls(t *testing.T) {
	r := NewRAS(16)
	addrs := []uint64{0x100, 0x200, 0x300, 0x400}
	for _, a := range addrs {
		r.Push(a)
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		if got := r.Pop(); got != addrs[i] {
			t.Fatalf("pop = %#x, want %#x", got, addrs[i])
		}
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := uint64(1); i <= 6; i++ {
		r.Push(i * 0x10)
	}
	// Deepest two entries were overwritten; the top four survive.
	want := []uint64{0x60, 0x50, 0x40, 0x30}
	for _, w := range want {
		if got := r.Pop(); got != w {
			t.Fatalf("pop = %#x, want %#x", got, w)
		}
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x111)
	r.Push(0x222)
	snap := r.Snapshot()
	r.Pop()
	r.Push(0x333)
	r.Push(0x444)
	r.Restore(snap)
	if got := r.Pop(); got != 0x222 {
		t.Fatalf("after restore pop = %#x, want 0x222", got)
	}
	if got := r.Pop(); got != 0x111 {
		t.Fatalf("after restore pop = %#x, want 0x111", got)
	}
}

func TestK8ConfigShape(t *testing.T) {
	cfg := K8Config()
	if cfg.Kind != KindGshare || cfg.TableBits != 14 {
		t.Fatalf("K8 config should be a 16K gshare: %+v", cfg)
	}
	p := New(cfg)
	// Smoke: it predicts and trains without panicking.
	_, snap := p.PredictDirection(0xFFFF800000001000)
	p.Update(0xFFFF800000001000, true, snap)
}

// TestRASCheckpointRing: checkpoints come from a ring allocated once;
// rewinding to a squashed checkpoint makes its slot the next one used,
// so older live checkpoints survive any number of squash-and-refetch
// rounds, and the owner's view is auditable.
func TestRASCheckpointRing(t *testing.T) {
	r := NewRAS(4)
	r.ReserveCheckpoints(3) // rounds up to 4 slots
	r.Push(0x100)
	old := r.Snapshot() // held by a call that stays in flight
	for round := uint64(0); round < 50; round++ {
		// Wrong-path work: three calls that get squashed.
		r.Push(0x200 + round)
		first := r.Snapshot()
		r.Push(0x300 + round)
		r.Snapshot()
		r.Push(0x400 + round)
		r.Snapshot()
		if err := r.AuditCheckpoints(old, 4); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		r.Rewind(first)
		if err := r.AuditCheckpoints(old, 1); err != nil {
			t.Fatalf("round %d after rewind: %v", round, err)
		}
	}
	r.Restore(old)
	if got := r.Pop(); got != 0x100 {
		t.Fatalf("after 50 squashed rounds the old checkpoint restores %#x, want 0x100", got)
	}
	if s := r.Snapshot(); s != old+1 {
		t.Fatalf("next checkpoint after the rewinds has ordinal %d, want %d", s, old+1)
	}

	// The audit notices an owner that holds more than the ring, or whose
	// newest checkpoint is not the newest taken (a missed rewind).
	if err := r.AuditCheckpoints(old, 5); err == nil {
		t.Fatal("5 live checkpoints in a 4-slot ring passed the audit")
	}
	r.Snapshot()
	if err := r.AuditCheckpoints(old, 2); err == nil {
		t.Fatal("a checkpoint the owner does not know of passed the audit")
	}
}

func TestRASSnapshotDoesNotAllocate(t *testing.T) {
	r := NewRAS(12)
	r.ReserveCheckpoints(96)
	if n := testing.AllocsPerRun(1000, func() {
		s := r.Snapshot()
		r.Push(0x1234)
		r.Restore(s)
	}); n != 0 {
		t.Fatalf("Snapshot/Restore allocate %v times per call", n)
	}
}
