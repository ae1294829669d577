package jobd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreReplay feeds arbitrary bytes to the job store's replay as
// store.jsonl, optionally behind the valid snapshot of
// testdata/parent-store. Whatever the log holds — torn, duplicated,
// reordered or foreign lines — replay must not panic, every job must end
// in one of the four phases, and replaying the log twice over must
// change nothing: a crash between a compaction's two renames leaves
// records the snapshot already covers, and sequence numbers make them
// no-ops.
func FuzzStoreReplay(f *testing.F) {
	snap, err := os.ReadFile(filepath.Join("testdata", "parent-store", storeSnapFile))
	if err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join("testdata", "parent-store", storeLogFile))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(log, []byte("\n")) // start, exit, start of job 0002, then ""
	own := []byte(`{"seq":1,"time":"2026-01-01T00:00:00Z","op":"accept","job":"0009","idem_key":"k","spec":{"seed":9}}
{"seq":2,"time":"2026-01-01T00:00:01Z","op":"start","job":"0009","attempt":1,"pid":7,"pid_start":3}
{"seq":3,"time":"2026-01-01T00:00:02Z","op":"exit","job":"0009","attempt":1,"kind":"livelock","message":"stuck","retryable":true,"cycle":9,"rip":4096}
{"seq":4,"time":"2026-01-01T00:00:03Z","op":"fail","job":"0009","kind":"livelock","message":"stuck","phase":"failed"}
`)
	for _, withSnap := range []bool{false, true} {
		f.Add(log, withSnap)
		f.Add(own, withSnap)
		f.Add(log[:len(log)-17], withSnap)                                                          // torn final line
		f.Add(bytes.Join([][]byte{lines[0], lines[0][:20], []byte("\n"), lines[1]}, nil), withSnap) // torn middle line
		f.Add(append(append([]byte(nil), log...), log...), withSnap)                                // every record twice
		f.Add(bytes.Join([][]byte{lines[2], lines[1], lines[0]}, nil), withSnap)                    // newest first
		f.Add([]byte(`{"seq":9,"op":"state","job":"nobody","phase":"done"}`+"\n"), withSnap)
		f.Add([]byte("null\n{}\n[]\n\x00\n"), withSnap)
	}

	f.Fuzz(func(t *testing.T, log []byte, withSnap bool) {
		dir := t.TempDir()
		if withSnap {
			if err := os.WriteFile(filepath.Join(dir, storeSnapFile), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		replay := func(log []byte) []Status {
			if err := os.WriteFile(filepath.Join(dir, storeLogFile), log, 0o644); err != nil {
				t.Fatal(err)
			}
			jobs, _, err := ReadJobStore(dir)
			if err != nil {
				t.Skip(err) // a line past the scanner's limit: an error, not a panic
			}
			return jobs
		}
		once := replay(log)
		for _, st := range once {
			switch st.State {
			case StateQueued, StateRunning, StateDone, StateFailed:
			default:
				t.Fatalf("job %q replayed into phase %q", st.ID, st.State)
			}
		}
		// A record without a sequence number is not something Append
		// writes; replay applies it every time it meets it, by design
		// (hand-written logs in tests rely on it), so it has no place in
		// the idempotency claim.
		for _, line := range bytes.Split(log, []byte("\n")) {
			var rec Record
			if json.Unmarshal(line, &rec) == nil && rec.Seq == 0 {
				return
			}
		}
		twice := replay(bytes.Join([][]byte{log, log}, []byte("\n")))
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("replaying the log twice changed the outcome:\nonce  %+v\ntwice %+v", once, twice)
		}
	})
}

// FuzzJobSpec feeds arbitrary bytes through the job spec's decode (the
// json.Unmarshal readJSON[Spec] does) and Validate. A spec Validate
// accepts must derive its breaker key and both configs without
// panicking, and survive a marshal → unmarshal round trip unchanged,
// breaker key included: the spec the daemon writes is the spec the
// worker reads.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		// scripts/restart_soak.sh
		`{"scale":"bench","nfiles":2,"filesize":4096,"seed":9,"change":0.5,"timer":4000000000,"maxcycles":-1,"checkpoint_cycles":25000}`,
		// scripts/serve_smoke.sh
		`{"scale":"bench","nfiles":1,"filesize":1024,"seed":5,"change":0.4,"timer":4000000000,"maxcycles":-1,"checkpoint_cycles":50000}`,
		// scripts/fleet_soak.sh: the campaign base with one of its seeds
		`{"scale":"bench","nfiles":1,"filesize":1024,"change":0.4,"timer":4000000000,"maxcycles":-1,"checkpoint_cycles":50000,"seed":3001}`,
		// benchmark/serve.go
		`{"scale":"small","mode":"native","seed":3001}`,
		`{"inject":"robcorrupt@300;memdelay@500:cycles=9","fuzz":{"seqs":10,"seed":7},"tenant":"a","priority":-3}`,
		`{"campaign":"c","cell":"x/1","epoch":4,"client_deadline_ms":50,"mem_limit_mb":-1,"restarts":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := new(Spec)
		if json.Unmarshal(data, spec) != nil || spec.Validate() != nil {
			return
		}
		key := spec.ConfigKey()
		spec.machineConfig(spec.experimentConfig().SnapshotCycles)

		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("an accepted spec does not marshal: %v", err)
		}
		back := new(Spec)
		if err := json.Unmarshal(out, back); err != nil {
			t.Fatalf("a marshalled spec does not unmarshal: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec:\nin  %+v\nout %+v", spec, back)
		}
		if back.ConfigKey() != key {
			t.Fatalf("round trip changed the breaker key: %#x → %#x", key, back.ConfigKey())
		}
	})
}
