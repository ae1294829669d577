// Campaign orchestration: generate sequences, run each through the
// dual-engine harness, and for every finding shrink → localize →
// promote into the regression corpus, journaling each step so ptlmon
// renders a fuzz run the same way it renders a supervised simulation.
package conformance

import (
	"context"
	"fmt"
	"time"

	"ptlsim/internal/conformance/corpus"
	"ptlsim/internal/core"
	"ptlsim/internal/faultinject"
	"ptlsim/internal/simerr"
	"ptlsim/internal/supervisor"
)

// CampaignConfig parameterizes one fuzz campaign.
type CampaignConfig struct {
	// Run is the per-case harness configuration.
	Run Config
	// Seqs is how many sequences to generate and check.
	Seqs int
	// Seed derives every per-case seed; the same campaign seed
	// regenerates the same sequence stream.
	Seed int64
	// MaxUnits bounds the units per generated sequence (default 16).
	MaxUnits int
	// BytesShare is the percentage of sequences drawn from the
	// byte-level mutator instead of the DSL templates (default 34;
	// ignored when SeedPool is empty).
	BytesShare int
	// SeedPool holds raw programs for the byte-level mutator —
	// typically the decoded bytes of the shared seed corpus.
	SeedPool [][]byte
	// ShrinkProbes bounds harness re-runs per finding during
	// delta-minimization (default 200).
	ShrinkProbes int
	// MaxFindings stops the campaign early once this many findings
	// were processed (default 10) — a systematically broken engine
	// should not grind through a full soak one finding at a time.
	MaxFindings int
	// Journal receives fuzz lifecycle events (nil discards).
	Journal *supervisor.Journal
	// PromoteDir, when non-empty, receives minimized reproducers as
	// corpus cases.
	PromoteDir string
}

func (cc CampaignConfig) withDefaults() CampaignConfig {
	if cc.MaxUnits <= 0 {
		cc.MaxUnits = 16
	}
	if cc.BytesShare <= 0 {
		cc.BytesShare = 34
	}
	if cc.ShrinkProbes <= 0 {
		cc.ShrinkProbes = 200
	}
	if cc.MaxFindings <= 0 {
		cc.MaxFindings = 10
	}
	return cc
}

// NewCampaign completes cc with what every front end (ptlsim -fuzz, a
// jobd fuzz job) must derive identically, so one campaign seed means
// one sequence stream whoever launches it: timingSeeds predictor
// scrambles derived from cc.Seed, the shared seed corpus as the
// mutator's pool, and inject (a faultinject spec list) attached to
// every simulated machine.
func NewCampaign(cc CampaignConfig, timingSeeds int, inject string) (CampaignConfig, error) {
	for k := 0; k < timingSeeds; k++ {
		cc.Run.TimingSeeds = append(cc.Run.TimingSeeds, cc.Seed*1_000_003+int64(k)+1)
	}
	if inject != "" {
		specs, err := faultinject.ParseList(inject)
		if err != nil {
			return cc, err
		}
		cc.Run.Instrument = func(m *core.Machine) { faultinject.New(specs...).Attach(m) }
	}
	// Outside a repo checkout (no go.mod to anchor on) the pool is just
	// empty and every sequence comes from the DSL templates.
	if dir, derr := corpus.SeedDir(); derr == nil {
		cases, err := corpus.Load(dir)
		if err != nil {
			return cc, err
		}
		for _, cs := range cases {
			if code, cerr := cs.Code(); cerr == nil && len(code) > 0 {
				cc.SeedPool = append(cc.SeedPool, code)
			}
		}
	}
	return cc, nil
}

// CampaignFinding is one fully processed finding: the minimized
// reproducer (as a corpus case) plus the finding it produces.
type CampaignFinding struct {
	Case    corpus.Case
	Finding Finding
	Shrink  ShrinkStats
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Seqs        int     // sequences actually executed
	Interrupted bool    // context cancelled before Seqs completed
	ElapsedSec  float64 // wall-clock campaign duration
	SeqsPerSec  float64 // generation+dual-execution throughput
	ShrinkMs    int64   // wall-clock spent minimizing findings
	Findings    []CampaignFinding
	Promoted    []string // corpus paths written
}

// RunCampaign executes a fuzz campaign. Infrastructure errors (the
// harness itself failing) abort the campaign; findings do not — they
// are shrunk, localized, optionally promoted, and the campaign moves
// on until Seqs or MaxFindings is reached.
func RunCampaign(ctx context.Context, cc CampaignConfig) (*CampaignResult, error) {
	cc = cc.withDefaults()
	j := cc.Journal
	j.Append(supervisor.Entry{Event: supervisor.EventFuzzStart,
		Message: fmt.Sprintf("seqs=%d seed=%#x max-units=%d timing-seeds=%d",
			cc.Seqs, cc.Seed, cc.MaxUnits, len(cc.Run.TimingSeeds))})
	r := newRNG(cc.Seed)
	res := &CampaignResult{}
	start := time.Now()
	for i := 0; i < cc.Seqs; i++ {
		select {
		case <-ctx.Done():
			res.Interrupted = true
			i = cc.Seqs
			continue
		default:
		}
		caseSeed := int64(r.next() >> 1)
		var units [][]byte
		var source string
		var err error
		if len(cc.SeedPool) > 0 && r.chance(cc.BytesShare) {
			units = MutateBytes(caseSeed, cc.SeedPool, cc.MaxUnits)
			source = "bytes"
		} else {
			units, err = GenDSL(caseSeed, 1+r.n(cc.MaxUnits))
			source = "dsl"
			if err != nil {
				return res, fmt.Errorf("conformance: generate (seed %#x): %w", caseSeed, err)
			}
		}
		res.Seqs++
		f, err := cc.Run.RunCase(units, caseSeed)
		if err != nil {
			return res, err
		}
		if f == nil {
			continue
		}
		cf, err := cc.process(units, caseSeed, source, f, res)
		if err != nil {
			return res, err
		}
		res.Findings = append(res.Findings, *cf)
		if len(res.Findings) >= cc.MaxFindings {
			break
		}
	}
	res.ElapsedSec = time.Since(start).Seconds()
	if res.ElapsedSec > 0 {
		res.SeqsPerSec = float64(res.Seqs) / res.ElapsedSec
	}
	j.Append(supervisor.Entry{Event: supervisor.EventFuzzDone,
		Insns: int64(res.Seqs),
		Message: fmt.Sprintf("%d seqs, %d findings, %d promoted, %.1f seqs/sec",
			res.Seqs, len(res.Findings), len(res.Promoted), res.SeqsPerSec)})
	return res, nil
}

// process shrinks, localizes, and promotes one finding.
func (cc CampaignConfig) process(units [][]byte, caseSeed int64, source string,
	f *Finding, res *CampaignResult) (*CampaignFinding, error) {
	j := cc.Journal
	j.Append(supervisor.Entry{Event: supervisor.EventFuzzFinding,
		Kind: f.Kind, Commit: f.Commit, Insns: f.NativeInsns,
		Message: clip(f.Diag, 300)})

	t0 := time.Now()
	minU, st, err := cc.Run.Shrink(units, caseSeed, f.Kind, cc.ShrinkProbes)
	if err != nil {
		return nil, err
	}
	// The minimized case's own finding carries the final diagnosis.
	fm, err := cc.Run.RunCase(minU, caseSeed)
	if err != nil || fm == nil || fm.Kind != f.Kind {
		// Flaky reduction (should not happen with deterministic seeds):
		// fall back to the original.
		minU, fm = units, f
	}
	if fm.Kind == string(simerr.KindDivergence) {
		if n, diag, lerr := cc.Run.Localize(minU, caseSeed, fm.TimingSeed); lerr == nil && n >= 0 {
			fm.DivergedAt = n
			if diag != "" {
				fm.Diag = diag
			}
		}
	}
	shrinkMs := time.Since(t0).Milliseconds()
	res.ShrinkMs += shrinkMs
	j.Append(supervisor.Entry{Event: supervisor.EventFuzzShrink,
		Kind: fm.Kind, DivergedAt: fm.DivergedAt, ElapsedMs: shrinkMs,
		Message: fmt.Sprintf("%d -> %d units in %d probes", st.From, st.To, st.Probes)})

	cs := corpus.Case{
		Name:       fmt.Sprintf("%s-%016x", source, uint64(caseSeed)),
		Source:     source,
		Seed:       caseSeed,
		Kind:       fm.Kind,
		Diag:       clip(fm.Diag, 500),
		DivergedAt: max(fm.DivergedAt, 0),
	}
	cs.SetUnits(minU)
	if cc.PromoteDir != "" {
		path, err := corpus.Write(cc.PromoteDir, cs)
		if err != nil {
			return nil, fmt.Errorf("conformance: promote %s: %w", cs.Name, err)
		}
		res.Promoted = append(res.Promoted, path)
		j.Append(supervisor.Entry{Event: supervisor.EventFuzzPromote,
			Kind: fm.Kind, Slot: path, Message: cs.Name})
	}
	return &CampaignFinding{Case: cs, Finding: *fm, Shrink: st}, nil
}

// clip bounds a diagnosis string for journal lines and corpus files.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
