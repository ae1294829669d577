#!/bin/sh
# fleet_soak: the multi-node campaign dispatch chaos soak. Boot three
# ptlserve daemons — the third behind a chaosnet fault proxy — and run
# one ptlsweep campaign across them. Mid-sweep, one daemon is SIGKILLed
# (and never restarted: graceful degradation, not failover theater) and
# the proxied daemon is network-partitioned for longer than the lease
# TTL, then healed. The sweep must still complete: zero lost cells,
# zero duplicated verdicts (the fencing invariant), replica cells with
# bit-identical console FNV, and one merged campaign report rendered by
# ptlmon -journal.
#
# Knobs: FLEET_JOBS (campaign cells, even, default 48; the acceptance
# campaign is FLEET_JOBS=1000), FLEET_SEED (campaign seed base, default
# $$), FLEET_PORT (base port, default 17490), FLEET_DATA (data dir; CI
# sets a workspace path so journals/reports survive failures).
set -eu

base_port="${FLEET_PORT:-17490}"
njobs="${FLEET_JOBS:-48}"
seed="${FLEET_SEED:-$$}"
bin="$(mktemp -d)"
data="${FLEET_DATA:-$bin/data}"
nseeds=$((njobs / 2)) # repeats=2 → cells = 2 * seeds
. "$(dirname "$0")/lib.sh"

p1=$base_port
p2=$((base_port + 1))
p3=$((base_port + 2))
pproxy=$((base_port + 3))
pctl=$((base_port + 4))

build ptlserve ptlsweep ptlmon chaosnet
mkdir -p "$data"

start_daemon() { # start_daemon <n> <port> : pid in $!
	spawn "$bin/ptlserve" -addr "127.0.0.1:$2" -data "$data/node$1" -workers 2 \
		-queue 64 >>"$data/node$1.log" 2>&1
}

echo "== starting 3 daemons + chaosnet proxy in front of node3"
start_daemon 1 "$p1"
d1=$!
start_daemon 2 "$p2"
d2=$!
start_daemon 3 "$p3"
d3=$!
spawn "$bin/chaosnet" -listen "127.0.0.1:$pproxy" -target "127.0.0.1:$p3" \
	-control "127.0.0.1:$pctl" -seed "$seed" >>"$data/chaosnet.log" 2>&1
cn=$!
wait_http "http://127.0.0.1:$p1/healthz"
wait_http "http://127.0.0.1:$p2/healthz"
wait_http "http://127.0.0.1:$pproxy/healthz"
wait_http "http://127.0.0.1:$pctl/faults"

echo "== writing campaign spec: $njobs cells ($nseeds seeds x 2 replicas), seed base $seed"
awk -v n="$nseeds" -v s="$seed" 'BEGIN{
	printf "{\"name\":\"fleet-soak\",\"repeats\":2,\n"
	printf " \"base\":{\"scale\":\"bench\",\"nfiles\":1,\"filesize\":1024,\"change\":0.4,"
	printf "\"timer\":4000000000,\"maxcycles\":-1,\"checkpoint_cycles\":50000},\n"
	printf " \"seeds\":["
	for (i = 0; i < n; i++) printf "%s%d", (i ? "," : ""), s % 100000 + i
	printf "]}\n"
}' >"$data/campaign.json"

echo "== launching ptlsweep across the fleet"
spawn "$bin/ptlsweep" -campaign "$data/campaign.json" \
	-nodes "http://127.0.0.1:$p1,http://127.0.0.1:$p2,http://127.0.0.1:$pproxy" \
	-journal "$data/sweep.jsonl" -out "$data/report.json" \
	-lease 5s -poll 300ms -inflight 8 >"$data/sweep.log" 2>&1
sweep=$!

sleep 6
echo "== chaos: SIGKILL node2 (pid $d2), never to return"
kill -9 "$d2" 2>/dev/null || true
wait "$d2" 2>/dev/null || true

echo "== chaos: partitioning node3 (blackhole via chaosnet) for 12s"
curl -sf -X POST -d '{"partition":true}' "http://127.0.0.1:$pctl/faults" >/dev/null
sleep 12
curl -sf -X POST -d '{}' "http://127.0.0.1:$pctl/faults" >/dev/null
echo "== chaos: partition healed"

echo "== waiting for the sweep to finish"
if ! wait "$sweep"; then
	echo "ptlsweep FAILED; tail of sweep log:"
	tail -30 "$data/sweep.log"
	exit 1
fi
sed 's/^/   /' "$data/sweep.log" | tail -6

echo "== verifying the merged report"
field() { # field <name> -> integer value from report.json
	json_int "$1" <"$data/report.json"
}
cells=$(field cells)
done_n=$(field done)
failed=$(field failed)
steals=$(field steals)
if [ "$cells" != "$njobs" ] || [ "$done_n" != "$njobs" ] || [ "$failed" != "0" ]; then
	echo "report: cells=$cells done=$done_n failed=$failed, want $njobs/$njobs/0"
	exit 1
fi
if [ "${steals:-0}" -lt 1 ]; then
	echo "report: steals=$steals — a SIGKILL plus a partition stole nothing?"
	exit 1
fi
if grep -q '"fnv_mismatches"' "$data/report.json"; then
	echo "DETERMINISM VIOLATION: replica cells disagreed on console FNV:"
	grep -A4 '"fnv_mismatches"' "$data/report.json"
	exit 1
fi

# Fencing invariant: every cell has exactly one verdict — no cell is
# lost, none is decided twice.
verdicts=$(grep -c '"cell":' "$data/report.json" | tr -d ' ')
dups=$(grep -o '"cell": "[0-9]*"' "$data/report.json" | sort | uniq -d)
if [ "$verdicts" != "$njobs" ] || [ -n "$dups" ]; then
	echo "verdicts=$verdicts (want $njobs), duplicated cells: ${dups:-none}"
	exit 1
fi

# Replica determinism, double-checked outside ptlsweep: replicas of
# one grid point (same config_key) must report the same console_fnv.
# console_fnv precedes config_key within each verdict object.
pairs=$(sed -n 's/.*"config_key": \([0-9]*\).*/\1/p' "$data/report.json" | sort -u | wc -l | tr -d ' ')
divergent=$(awk '
	/"console_fnv":/ { fnv = $2 + 0 }
	/"config_key":/ {
		key = $2 + 0
		if (key in seen && seen[key] != fnv) bad[key] = 1
		seen[key] = fnv
	}
	END { n = 0; for (k in bad) n++; print n }
' "$data/report.json")
if [ "$divergent" != "0" ]; then
	echo "$divergent config(s) with divergent replica FNVs"
	exit 1
fi
echo "   $done_n/$cells cells done, $steals steal(s), $pairs configs, replicas bit-identical"

echo "== merged campaign report (ptlmon -journal)"
"$bin/ptlmon" -journal "$data/sweep.jsonl" | sed 's/^/   /'

echo "== remote inspection of a surviving daemon (ptlmon -addr)"
"$bin/ptlmon" -addr "http://127.0.0.1:$p1" -version | sed 's/^/   /'
"$bin/ptlmon" -addr "http://127.0.0.1:$p1" -phase done -limit 3 | sed 's/^/   /'

echo "== draining surviving daemons"
kill -TERM "$d1" "$d3" 2>/dev/null || true
wait "$d1" 2>/dev/null || true
wait "$d3" 2>/dev/null || true
kill -TERM "$cn" 2>/dev/null || true
echo "fleet soak: OK ($njobs cells, 3 nodes, 1 SIGKILL + 1 partition, seed $seed)"
