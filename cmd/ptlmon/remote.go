// Remote-daemon mode: -addr points ptlmon at a ptlserve daemon (local
// or across the network) and the monitor becomes an operator console,
// going through the same retrying fleet client the campaign dispatcher
// uses — so flaky links, 429 backpressure with Retry-After, and daemon
// restarts are absorbed here exactly as they are in a sweep.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"ptlsim/internal/fleet"
	"ptlsim/internal/jobd"
)

// remoteMain serves the -addr modes: list jobs (with -phase/-limit),
// show one job (-job), or print the daemon's build identity (-version).
func remoteMain(w io.Writer, addr, job, phase string, limit int, version bool) error {
	client := fleet.NewClient(fleet.ClientConfig{Timeout: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if version {
		v, err := client.Version(ctx, addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: version %s go %s schema %016x", addr, v.Version, v.Go, v.SchemaHash)
		if v.Modified {
			fmt.Fprint(w, " (modified tree)")
		}
		fmt.Fprintln(w)
		return nil
	}
	if job != "" {
		st, err := client.Job(ctx, addr, job)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}

	jobs, err := client.Jobs(ctx, addr, phase, limit)
	if err != nil {
		return err
	}
	printMetricsSummary(ctx, w, client, addr)
	if len(jobs) == 0 {
		fmt.Fprintf(w, "%s: no jobs", addr)
		if phase != "" {
			fmt.Fprintf(w, " in phase %s", phase)
		}
		fmt.Fprintln(w)
		return nil
	}
	return writeJobTable(w, jobs, nil)
}

// writeJobTable prints job statuses as a table. It is the one renderer
// of a job's outcome: -addr hands it what GET /jobs answered, -inspect
// what the job store in a data directory replays to, which is the same
// Status. Columns up to ELAPSED hold no spaces (scripts read them by
// position; the two durations are whole milliseconds). ckpt, when
// non-nil, fills a trailing newest-intact-checkpoint column, which only
// a reader on the daemon's host can know.
func writeJobTable(w io.Writer, jobs []jobd.Status, ckpt func(jobd.Status) string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	head := "JOB\tTENANT\tPRI\tSTATE\tATTEMPTS\tWAIT\tELAPSED\tDETAIL"
	if ckpt != nil {
		head += "\tCKPT"
	}
	fmt.Fprintln(tw, head)
	for _, st := range jobs {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%s\t%s\t%s",
			st.ID, tenantCol(st), st.Spec.Priority, st.State, st.Attempts,
			msCol(st.QueueWaitMs), msCol(st.ElapsedMs), detailCol(st))
		if ckpt != nil {
			fmt.Fprintf(tw, "\t%s", ckpt(st))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// printMetricsSummary renders the daemon's operational vital signs
// from its /metrics exposition above the job table. Best-effort: a
// daemon predating /metrics (or a scrape failure) just loses the
// header line, never the listing.
func printMetricsSummary(ctx context.Context, w io.Writer, client *fleet.Client, addr string) {
	vals, err := client.Metrics(ctx, addr)
	if err != nil || len(vals) == 0 {
		return
	}
	g := func(name string) int64 { return int64(vals[name]) }
	fmt.Fprintf(w, "%s: queue %d deep, %d running, breaker open for %d config(s), retry-after %dms\n",
		addr, g("jobd_queue_depth"), g("jobd_jobs_running"),
		g("jobd_breaker_open"), g("jobd_retry_after_ms"))
	fmt.Fprintf(w, "lifetime: %d submitted, %d done, %d failed, %d retried, %d adopted, %d reaped\n",
		g("jobd_jobs_submitted"), g("jobd_jobs_done"), g("jobd_jobs_failed"),
		g("jobd_jobs_retried"), g("jobd_jobs_adopted"), g("jobd_jobs_reaped"))
}

func tenantCol(st jobd.Status) string {
	if st.Spec.Tenant == "" {
		return "default"
	}
	return st.Spec.Tenant
}

func msCol(ms int64) string {
	if ms <= 0 {
		return "-"
	}
	return fmt.Sprintf("%dms", ms)
}

// detailCol is the verdict (or, for a live job, where it stands),
// marked when a restarted daemon adopted the job's worker.
func detailCol(st jobd.Status) string {
	var d string
	switch {
	case st.State == jobd.StateDone && st.Result != nil:
		d = fmt.Sprintf("cycle %d, %d insns, fnv %016x",
			st.Result.Cycles, st.Result.Insns, st.Result.ConsoleFNV)
	case st.State == jobd.StateFailed:
		d = fmt.Sprintf("%s: %s", st.Kind, st.Error)
	case st.State == jobd.StateRunning && st.PID != 0:
		d = fmt.Sprintf("pid %d", st.PID)
	case st.Kind != "":
		d = fmt.Sprintf("last exit %s: %s", st.Kind, st.Error)
	}
	if st.Adopted {
		d = strings.TrimSpace(d + " (adopted)")
	}
	return d
}
