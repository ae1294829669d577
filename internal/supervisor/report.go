// Human-readable rendering of the run journal behind cmd/ptlmon
// -journal, the summary of a supervised run: attempt history, failures by kind,
// restore and rotation-discard counts, degraded windows, self-check
// verdicts (divergence/invariant failures with the commit index, RIP
// and register diff that pinpoint them), triage results, and the run
// outcome.
package supervisor

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteReport summarizes parsed journal entries to w. tail > 0
// additionally prints the last tail raw events.
func WriteReport(w io.Writer, entries []Entry, tail int) {
	if len(entries) == 0 {
		fmt.Fprintln(w, "run journal: empty")
		return
	}
	var (
		attempts, checkpoints, retryable int
		restores, discards, degraded     int
		degradedCycles                   uint64
		lastCkpt                         Entry
		failures                         = map[string]int{}
		selfChecks                       []Entry
		triages                          []Entry
		outcome                          = "in progress (or writer crashed hard)"

		// Service (job daemon) accounting: what is not a job. Jobs are
		// rendered from the job store (ptlmon -inspect / -addr).
		rejects, breakerOpens, recoveries int
		elapsedMs                         int64

		// Fleet campaign accounting. Per-cell done events are counted,
		// not echoed — a 1,000-job sweep must render as a summary, so
		// only failures and robustness events (steals, fences, node
		// transitions) get their own lines.
		campaignName                     string
		cellsDone, cellsFailed           int
		leaseGrants, leaseSteals, fences int
		nodesDown, nodesUp               int
		fleetLines                       []string

		// Conformance fuzzing accounting.
		fuzzStarted                bool
		fuzzFindings, fuzzPromoted int
		fuzzShrinks                int
		fuzzFindingKinds           = map[string]int{}
		fuzzLines                  []string
	)
	for _, e := range entries {
		if e.Attempt > attempts {
			attempts = e.Attempt
		}
		if e.ElapsedMs > elapsedMs {
			elapsedMs = e.ElapsedMs
		}
		switch e.Event {
		case EventCheckpoint:
			checkpoints++
			lastCkpt = e
		case EventFailure:
			kind := e.Kind
			if kind == "" {
				kind = "error"
			}
			failures[kind]++
			if e.Retryable {
				retryable++
			}
			if kind == "divergence" || kind == "invariant" {
				selfChecks = append(selfChecks, e)
			}
		case EventRestore:
			restores++
		case EventDiscardSlot:
			discards++
		case EventDegradeOff:
			degraded++
			degradedCycles += e.ToCycle - e.FromCycle
		case EventTriage:
			triages = append(triages, e)
		case EventComplete:
			outcome = fmt.Sprintf("completed at cycle %d (%d instructions)", e.Cycle, e.Insns)
		case EventInterrupt:
			outcome = fmt.Sprintf("interrupted at cycle %d; final checkpoint %s", e.Cycle, e.Slot)
		case EventGiveUp:
			outcome = "gave up: " + e.Message

		case EventRecover:
			recoveries++
		case EventReject:
			rejects++
		case EventBreakerOpen:
			breakerOpens++
		case EventDrain:
			if e.Message == "complete" {
				outcome = "service drained cleanly"
			}

		case EventCampaignStart:
			campaignName = e.Message
		case EventLeaseGrant:
			leaseGrants++
		case EventLeaseSteal:
			leaseSteals++
			fleetLines = append(fleetLines, fmt.Sprintf("steal: cell %s epoch %d: %s", e.Job, e.Attempt, e.Message))
		case EventFenceReject:
			fences++
			fleetLines = append(fleetLines, fmt.Sprintf("fenced: cell %s stale epoch %d: %s", e.Job, e.Attempt, e.Message))
		case EventNodeDown:
			nodesDown++
			fleetLines = append(fleetLines, "node down: "+e.Message)
		case EventNodeUp:
			nodesUp++
			fleetLines = append(fleetLines, "node up: "+e.Message)
		case EventCellDone:
			cellsDone++
		case EventCellFail:
			cellsFailed++
			kind := e.Kind
			if kind == "" {
				kind = "error"
			}
			failures[kind]++
			fleetLines = append(fleetLines, fmt.Sprintf("cell %s failed (%s): %s", e.Job, kind, e.Message))
		case EventCampaignDone:
			outcome = "campaign done: " + e.Message

		case EventFuzzStart:
			fuzzStarted = true
		case EventFuzzFinding:
			fuzzFindings++
			kind := e.Kind
			if kind == "" {
				kind = "error"
			}
			fuzzFindingKinds[kind]++
			fuzzLines = append(fuzzLines, fmt.Sprintf("finding [%s] at insn %d: %s", kind, e.Insns, e.Message))
		case EventFuzzShrink:
			fuzzShrinks++
			fuzzLines = append(fuzzLines, "shrink: "+e.Message)
		case EventFuzzPromote:
			fuzzPromoted++
			fuzzLines = append(fuzzLines, "promoted "+e.Slot)
		case EventFuzzDone:
			outcome = "fuzz campaign done: " + e.Message
		}
	}

	fmt.Fprintf(w, "run journal: %d events, %d attempt(s)\n", len(entries), attempts)
	fmt.Fprintf(w, "  checkpoints: %d", checkpoints)
	if checkpoints > 0 {
		fmt.Fprintf(w, " (last %s at cycle %d)", lastCkpt.Slot, lastCkpt.Cycle)
	}
	fmt.Fprintln(w)
	if len(failures) > 0 {
		kinds := make([]string, 0, len(failures))
		for k := range failures {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, 0, len(kinds))
		total := 0
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s: %d", k, failures[k]))
			total += failures[k]
		}
		fmt.Fprintf(w, "  failures: %d (%s), %d retryable\n", total, strings.Join(parts, ", "), retryable)
	}
	if restores > 0 || discards > 0 {
		fmt.Fprintf(w, "  restores: %d, discarded slots: %d\n", restores, discards)
	}
	if degraded > 0 {
		fmt.Fprintf(w, "  degraded windows: %d (%d cycles on the sequential core)\n", degraded, degradedCycles)
	}
	if rejects > 0 || breakerOpens > 0 || recoveries > 0 {
		fmt.Fprintf(w, "  service: %d rejected, breaker opened %d time(s), %d store recovery(ies)\n",
			rejects, breakerOpens, recoveries)
	}
	if campaignName != "" || cellsDone > 0 || cellsFailed > 0 {
		fmt.Fprintf(w, "  fleet: %s: %d cell(s) done, %d failed; %d lease(s), %d stolen, %d fenced",
			orUnnamed(campaignName), cellsDone, cellsFailed, leaseGrants, leaseSteals, fences)
		if nodesDown > 0 || nodesUp > 0 {
			fmt.Fprintf(w, "; nodes: %d down, %d recovered", nodesDown, nodesUp)
		}
		fmt.Fprintln(w)
		// Cap the detail lines: the summary above is the report; the
		// lines exist to triage a handful of robustness events, not to
		// replay a thousand-cell campaign.
		const maxFleetLines = 40
		shown := fleetLines
		if len(shown) > maxFleetLines {
			fmt.Fprintf(w, "    (%d fleet event(s), showing last %d)\n", len(shown), maxFleetLines)
			shown = shown[len(shown)-maxFleetLines:]
		}
		for _, line := range shown {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	if fuzzStarted {
		fmt.Fprintf(w, "  fuzz: %d finding(s)", fuzzFindings)
		if len(fuzzFindingKinds) > 0 {
			kinds := make([]string, 0, len(fuzzFindingKinds))
			for k := range fuzzFindingKinds {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			parts := make([]string, 0, len(kinds))
			for _, k := range kinds {
				parts = append(parts, fmt.Sprintf("%s: %d", k, fuzzFindingKinds[k]))
			}
			fmt.Fprintf(w, " (%s)", strings.Join(parts, ", "))
		}
		fmt.Fprintf(w, ", %d shrunk, %d promoted\n", fuzzShrinks, fuzzPromoted)
		for _, line := range fuzzLines {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	for _, e := range selfChecks {
		fmt.Fprintf(w, "  self-check %s: commit %d, rip %#x, cycle %d\n", e.Kind, e.Commit, e.RIP, e.Cycle)
		writeDetail(w, "message", e.Message)
		writeDetail(w, "arch diff", e.Diff)
	}
	for _, e := range triages {
		if e.DivergedAt > 0 {
			fmt.Fprintf(w, "  triage: first diverging instruction %d (seeded from %s)\n", e.DivergedAt, e.Slot)
		} else {
			fmt.Fprintf(w, "  triage:\n")
		}
		writeDetail(w, "message", e.Message)
		writeDetail(w, "arch diff", e.Diff)
	}
	if elapsedMs > 0 {
		fmt.Fprintf(w, "  wall clock: %dms\n", elapsedMs)
	}
	fmt.Fprintf(w, "  outcome: %s\n", outcome)

	if tail > 0 {
		start := len(entries) - tail
		if start < 0 {
			start = 0
		}
		fmt.Fprintf(w, "last %d event(s):\n", len(entries)-start)
		for _, e := range entries[start:] {
			fmt.Fprintf(w, "  %s\n", FormatEntry(e))
		}
	}
}

// orUnnamed substitutes a placeholder for an empty campaign name.
func orUnnamed(name string) string {
	if name == "" {
		return "campaign"
	}
	return name
}

// writeDetail prints a labelled, possibly multi-line value indented
// under its parent report line; "; "-joined diffs get one line each.
func writeDetail(w io.Writer, label, val string) {
	if val == "" {
		return
	}
	fmt.Fprintf(w, "    %s:\n", label)
	for _, part := range strings.Split(val, "; ") {
		fmt.Fprintf(w, "      %s\n", part)
	}
}

// FormatEntry renders one journal entry as a single line for tails and
// tests.
func FormatEntry(e Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s attempt=%d", e.Event, e.Attempt)
	if e.Job != "" {
		fmt.Fprintf(&b, " job=%s", e.Job)
	}
	if e.Cycle > 0 {
		fmt.Fprintf(&b, " cycle=%d", e.Cycle)
	}
	if e.Insns > 0 {
		fmt.Fprintf(&b, " insns=%d", e.Insns)
	}
	if e.Commit > 0 {
		fmt.Fprintf(&b, " commit=%d", e.Commit)
	}
	if e.RIP > 0 {
		fmt.Fprintf(&b, " rip=%#x", e.RIP)
	}
	if e.DivergedAt > 0 {
		fmt.Fprintf(&b, " diverged_at=%d", e.DivergedAt)
	}
	if e.Slot != "" {
		fmt.Fprintf(&b, " slot=%s", e.Slot)
	}
	if e.Kind != "" {
		fmt.Fprintf(&b, " kind=%s", e.Kind)
	}
	if e.Tenant != "" {
		fmt.Fprintf(&b, " tenant=%s", e.Tenant)
	}
	if e.BackoffMs > 0 {
		fmt.Fprintf(&b, " backoff=%dms", e.BackoffMs)
	}
	if e.ToCycle > 0 {
		fmt.Fprintf(&b, " window=[%d,%d)", e.FromCycle, e.ToCycle)
	}
	if e.ElapsedMs > 0 {
		fmt.Fprintf(&b, " t=+%dms", e.ElapsedMs)
	}
	if e.Message != "" {
		fmt.Fprintf(&b, " msg=%q", e.Message)
	}
	return b.String()
}
