package jobd

import (
	"fmt"
	"sort"
	"time"

	"ptlsim/internal/supervisor"
)

// recoverFromStore rebuilds the daemon's runtime state from the
// replayed job store. Job state needs no rebuilding — readers are
// answered from the store, replayed or live alike — so terminal jobs
// only feed the latency ring; queued jobs are re-admitted to the
// admission queue — whose per-tenant priority heaps restore the
// pre-crash dequeue order, since Priority and Tenant ride in the
// persisted spec — and running jobs are staged for adopt-or-reap once
// Start launches the pool, with their tenant's running slot re-charged
// so per-tenant quota accounting survives the restart. Recovered
// queued jobs may exceed the configured depth (they were admitted
// legitimately by the previous incarnation); admission stays closed to
// new work until the backlog drains below it.
//
// The completed-job latency ring is re-seeded here too, in completion
// order, so the first Retry-After after a restart reflects measured
// drain rate instead of the cold-start constant — the recorded
// submit/finish stamps survive snapshot compaction in JobState.
func (d *Daemon) recoverFromStore() error {
	states := d.store.Jobs()
	d.recovery.Jobs = len(states)
	d.recovery.Skipped = d.store.Skipped()
	d.nextID = d.store.MaxID()

	type latSample struct {
		fin time.Time
		ms  int64
	}
	var doneLats []latSample
	for i := range states {
		js := &states[i]
		// The campaign epoch fence is durable: every accepted spec is in
		// the store, so the highest epoch per cell survives a crash.
		if ck := js.Spec.CellKey(); ck != "" && js.Spec.Epoch > d.cellEpoch[ck] {
			d.cellEpoch[ck] = js.Spec.Epoch
		}

		switch js.Phase {
		case StateDone, StateFailed:
			d.recovery.Terminal++
			if fin := parseRFC3339(js.FinishedAt); js.Phase == StateDone && !fin.IsZero() {
				st, _ := d.store.status(js.ID)
				// A sub-millisecond completion is still a sample.
				doneLats = append(doneLats, latSample{fin: fin, ms: max(st.ElapsedMs, 1)})
			}
		case StateQueued:
			d.recovery.Requeued++
			d.queue.push(d.resolveJob(js.ID, js.Spec))
		case StateRunning:
			d.recovery.Resumed++
			j := d.resolveJob(js.ID, js.Spec)
			// A fresh respawn budget per daemon incarnation: the daemon
			// crashing is not evidence against the job, and a chaos soak
			// of N daemon kills must not exhaust a per-job budget.
			j.restarts += js.Attempt
			d.queue.noteRunning(js.Spec.Tenant)
			d.resume = append(d.resume, resumeInfo{j: j, o: orphan{
				pid:      js.PID,
				pidStart: js.PIDStart,
				started:  parseRFC3339(js.StartedAt),
				attempt:  max(js.Attempt, 1),
			}})
		default:
			return fmt.Errorf("jobd: store job %s in unknown phase %q", js.ID, js.Phase)
		}
	}

	// Seed the latency ring oldest-completion-first: the bounded ring
	// keeps the most recent samples, so a store holding more history
	// than the ring leaves the estimate reflecting the newest drain
	// rate, not whichever jobs happened to be accepted first.
	sort.Slice(doneLats, func(i, k int) bool { return doneLats[i].fin.Before(doneLats[k].fin) })
	for _, s := range doneLats {
		d.noteLatency(s.ms)
	}

	if d.recovery.Requeued > 0 || d.recovery.Resumed > 0 || d.recovery.Skipped > 0 {
		d.count("jobd.recovery.runs")
		d.journal.Append(supervisor.Entry{Event: supervisor.EventRecover,
			Message: fmt.Sprintf("store replayed: %d job(s), %d terminal, %d requeued, %d running (adopt-or-reap), %d torn line(s) skipped",
				d.recovery.Jobs, d.recovery.Terminal, d.recovery.Requeued,
				d.recovery.Resumed, d.recovery.Skipped)})
	}
	return nil
}
