#!/bin/sh
# load_soak: the multi-tenant overload soak. Boot one ptlserve daemon
# with per-tenant quotas and weights, then fire a storm of concurrent
# submissions from four competing tenants:
#
#   greedy   — floods low-priority jobs far past its queued quota
#   latency  — fewer, high-priority jobs on a weight-8 fair share
#   chaos    — submits through a chaosnet proxy with a bandwidth cap
#   deadline — carries a client deadline too tight for the backlog
#
# The admission layer must hold the line: zero accepted jobs lost or
# duplicated, greedy throttled by its quota (429s with Retry-After),
# the latency tenant's fair share keeping its queue waits below the
# greedy tenant's (no priority inversion), deadline-overrun jobs shed
# at admission, and p99 admission latency bounded — all verified from
# the ptlload reports, the job store, the service journal's rejections,
# and the /metrics scrape.
#
# Knobs: LOAD_JOBS (total submissions across tenants, default 800; the
# acceptance run is LOAD_JOBS=10000), LOAD_PORT (base port, default
# 17520), LOAD_DATA (data dir; CI sets a workspace path so journals
# and reports survive failures).
set -eu

base_port="${LOAD_PORT:-17520}"
total="${LOAD_JOBS:-800}"
bin="$(mktemp -d)"
data="${LOAD_DATA:-$bin/data}"
. "$(dirname "$0")/lib.sh"

pserve=$base_port
pproxy=$((base_port + 1))
pctl=$((base_port + 2))

# Tenant shares of the total submission count.
n_greedy=$((total * 45 / 100))
n_latency=$((total * 25 / 100))
n_chaos=$((total * 15 / 100))
n_deadline=$((total - n_greedy - n_latency - n_chaos))

build ptlserve ptlload ptlmon chaosnet
mkdir -p "$data"

echo "== starting ptlserve with per-tenant quotas + chaosnet (bandwidth-capped) in front"
spawn "$bin/ptlserve" -addr "127.0.0.1:$pserve" -data "$data/serve" -workers 4 \
	-queue 256 \
	-tenant "greedy=48:0:1" \
	-tenant "latency=64:0:8" \
	-tenant "chaos=64:0:2" \
	-tenant "deadline=64:0:2" \
	>>"$data/serve.log" 2>&1
d=$!
spawn "$bin/chaosnet" -listen "127.0.0.1:$pproxy" -target "127.0.0.1:$pserve" \
	-control "127.0.0.1:$pctl" -seed 7 >>"$data/chaosnet.log" 2>&1
cn=$!
wait_http "http://127.0.0.1:$pserve/healthz"
wait_http "http://127.0.0.1:$pctl/faults"
curl -sf -X POST -d '{"bandwidth_bps":65536}' "http://127.0.0.1:$pctl/faults" >/dev/null
echo "   chaos tenant link capped at 64 KiB/s"

echo "== storm: $total submissions (greedy $n_greedy, latency $n_latency, chaos $n_chaos, deadline $n_deadline)"
load() { # load <tenant> <n> <extra flags...> : start the tenant's ptlload; pid in $!
	tenant=$1
	n=$2
	shift 2
	spawn "$bin/ptlload" -addr "http://127.0.0.1:$pserve" -tenant "$tenant" -n "$n" \
		-scale bench -nfiles 1 -filesize 1024 \
		-out "$data/$tenant.json" "$@" >>"$data/$tenant.log" 2>&1
}
load greedy "$n_greedy" -concurrency 32 -priority 1
lg=$!
load latency "$n_latency" -concurrency 16 -priority 9
ll=$!
spawn "$bin/ptlload" -addr "http://127.0.0.1:$pproxy" -tenant chaos -n "$n_chaos" \
	-scale bench -nfiles 1 -filesize 1024 \
	-concurrency 8 -timeout 30s -out "$data/chaos.json" >>"$data/chaos.log" 2>&1
lc=$!
# The deadline tenant is the late arrival: hold it until the daemon has
# completed a few jobs (so the drain-rate ring is warm — a cold ring
# fails open and admits everything) and the storm's backlog is real.
i=0
while :; do
	done_n=$(curl -sf "http://127.0.0.1:$pserve/statz" | json_int jobd.jobs.done)
	[ "${done_n:-0}" -ge 4 ] && break
	i=$((i + 1))
	if [ "$i" -gt 600 ]; then
		echo "daemon never completed a job; can't warm the drain-rate ring"
		exit 1
	fi
	sleep 0.1
done
# 1s is comfortably above one bench job's run time (so admitted jobs
# never blow the attempt deadline) but far below the storm's estimated
# queue wait now that the latency ring is warm — shedding must engage.
load deadline "$n_deadline" -concurrency 16 -deadline 1s
ld=$!
fail=0
for p in $lg $ll $lc $ld; do
	wait "$p" || fail=1
done
if [ "$fail" != "0" ]; then
	echo "a ptlload tenant reported transport errors; logs:"
	tail -5 "$data"/greedy.log "$data"/latency.log "$data"/chaos.log "$data"/deadline.log
	exit 1
fi

field() { # field <file> <name> -> integer value
	json_int "$2" <"$data/$1.json"
}

echo "== waiting for the accepted backlog to drain"
i=0
while :; do
	depth=$(curl -sf "http://127.0.0.1:$pserve/metrics" |
		awk '/^jobd_queue_depth |^jobd_jobs_running /{s += $2} END{print s + 0}')
	[ "$depth" = "0" ] && break
	i=$((i + 1))
	if [ "$i" -gt 1200 ]; then
		echo "backlog never drained (depth $depth)"
		exit 1
	fi
	sleep 0.5
done

echo "== asserting: zero lost, zero duplicated"
for t in greedy latency chaos deadline; do
	grep -o '"[0-9][0-9]*"' "$data/$t.json" | tr -d '"'
done | sort >"$data/accepted.ids"
dups=$(uniq -d <"$data/accepted.ids")
if [ -n "$dups" ]; then
	echo "duplicated job IDs across tenant reports: $dups"
	exit 1
fi
curl -sf "http://127.0.0.1:$pserve/jobs" |
	grep -o '"id":"[0-9]*"' | sed 's/.*"id":"\([0-9]*\)".*/\1/' | sort >"$data/daemon.ids"
if ! cmp -s "$data/accepted.ids" "$data/daemon.ids"; then
	echo "accepted IDs and daemon jobs diverge:"
	diff "$data/accepted.ids" "$data/daemon.ids" | head -10
	exit 1
fi
accepted=$(wc -l <"$data/accepted.ids" | tr -d ' ')
failed=$(curl -sf "http://127.0.0.1:$pserve/statz" | json_int jobd.jobs.failed)
if [ "${failed:-0}" != "0" ]; then
	echo "jobd.jobs.failed = $failed, want 0"
	exit 1
fi

echo "== asserting: quota enforcement and deadline shedding"
quota=$(field greedy quota_rejected)
shed=$(field deadline shed)
if [ "${quota:-0}" -lt 1 ]; then
	echo "greedy quota_rejected=$quota — the quota never engaged?"
	exit 1
fi
if [ "${shed:-0}" -lt 1 ]; then
	echo "deadline shed=$shed — shedding never engaged?"
	exit 1
fi
if ! grep -q '"kind":"tenant-quota"' "$data/serve/service.jsonl"; then
	echo "journal has no tenant-quota reject entries"
	exit 1
fi
if ! grep -q '"kind":"deadline-shed"' "$data/serve/service.jsonl"; then
	echo "journal has no deadline-shed entries"
	exit 1
fi

echo "== asserting: no priority inversion (job store queue waits by tenant)"
# Mean queue wait per tenant from the job store's view of every job
# (ptlmon -inspect: TENANT is column 2, WAIT in whole ms column 6); the
# weight-8 latency tenant must clear the queue faster than greedy.
waits=$("$bin/ptlmon" -inspect "$data/serve" | awk '
	$2 == "greedy" || $2 == "latency" { sum[$2] += $6 + 0; n[$2]++ }
	END {
		g = (n["greedy"] ? sum["greedy"] / n["greedy"] : -1)
		l = (n["latency"] ? sum["latency"] / n["latency"] : -1)
		printf "%.0f %.0f\n", g, l
	}
')
g_wait=${waits% *}
l_wait=${waits#* }
if [ "$g_wait" = "-1" ] || [ "$l_wait" = "-1" ]; then
	echo "job store holds no job of a tenant (greedy=$g_wait latency=$l_wait)"
	exit 1
fi
if [ "$l_wait" -gt "$g_wait" ]; then
	echo "priority inversion: latency mean wait ${l_wait}ms > greedy ${g_wait}ms"
	exit 1
fi
echo "   mean queue wait: latency ${l_wait}ms <= greedy ${g_wait}ms"

echo "== asserting: bounded p99 admission latency (/metrics histogram)"
curl -sf "http://127.0.0.1:$pserve/metrics" >"$data/metrics.txt"
p99=$(awk '
	/^jobd_admission_latency_ms_bucket/ {
		le = $0; sub(/.*le="/, "", le); sub(/".*/, "", le)
		bucket[++nb] = le; cum[nb] = $2
	}
	/^jobd_admission_latency_ms_count/ { count = $2 }
	END {
		if (count == 0) { print "none"; exit }
		want = count * 0.99
		for (i = 1; i <= nb; i++) if (cum[i] >= want) { print bucket[i]; exit }
		print "+Inf"
	}
' "$data/metrics.txt")
case "$p99" in
none | +Inf)
	echo "admission latency p99 bucket = $p99 ms — unbounded or unmeasured"
	exit 1
	;;
esac
echo "   admission p99 <= ${p99}ms"

echo "== asserting: the chaos tenant really was bandwidth-capped"
bw_waits=$(curl -sf "http://127.0.0.1:$pctl/stats" | json_int bw_waits)
if [ "${bw_waits:-0}" -lt 1 ]; then
	echo "chaosnet bw_waits=$bw_waits — the bandwidth cap never throttled"
	exit 1
fi
chaos_ok=$(field chaos accepted)
echo "   chaos tenant: $chaos_ok accepted through a capped link ($bw_waits token waits)"

echo "== per-tenant summary (ptlmon -addr)"
"$bin/ptlmon" -addr "http://127.0.0.1:$pserve" -limit 5 | sed 's/^/   /'

echo "== draining the daemon"
kill -TERM "$d" 2>/dev/null || true
wait "$d" 2>/dev/null || true
kill -TERM "$cn" 2>/dev/null || true
echo "load soak: OK ($total submissions, 4 tenants, $accepted accepted, $quota quota 429s, $shed shed)"
