#!/bin/sh
# restart_soak: the daemon crash-recovery chaos soak. Boot ptlserve,
# submit a batch of identical jobs, then repeatedly SIGKILL the daemon
# at randomized points mid-campaign and restart it on the same data
# directory. The durable job store must carry every job across every
# crash: at the end, zero jobs are lost, zero are duplicated, every job
# is done with bit-identical guest output, idempotent resubmission
# across crashes keeps returning the original jobs, and one more crash
# after the end leaves every job's status byte-identical (a status is a
# view of the durable store, not of the daemon that ran the job).
#
# Knobs: SOAK_ROUNDS (daemon kills, default 4), SOAK_JOBS (batch size,
# default 4), SOAK_SEED (randomized kill-delay seed, default $$),
# SERVE_PORT (default 17484), SERVE_DATA (data dir; CI sets it to a
# workspace path so store/journal artifacts survive failures).
set -eu

port="${SERVE_PORT:-17484}"
rounds="${SOAK_ROUNDS:-4}"
njobs="${SOAK_JOBS:-4}"
seed="${SOAK_SEED:-$$}"
bin="$(mktemp -d)"
data="${SERVE_DATA:-$bin/data}"
base="http://127.0.0.1:$port"
. "$(dirname "$0")/lib.sh"

# A workload long enough that kills land mid-run, with a tight
# checkpoint cadence so every crash has rotation slots to resume from.
spec='{"scale":"bench","nfiles":2,"filesize":4096,"seed":9,"change":0.5,"timer":4000000000,"maxcycles":-1,"checkpoint_cycles":25000}'

rand_ms() { # rand_ms <round> -> 300..2300, deterministic per seed+round
	awk -v s="$seed" -v r="$1" 'BEGIN{srand(s + r); print 300 + int(rand() * 2000)}'
}

start_daemon() {
	spawn "$bin/ptlserve" -addr "127.0.0.1:$port" -data "$data" -workers 2 \
		-compact-every 8 >>"$data/daemon.log" 2>&1
	daemon_pid=$!
	wait_http "$base/healthz" "daemon never came up (see $data/daemon.log)"
}

crash_daemon() { # SIGKILL the daemon and restart it on the same data directory
	kill -9 "$daemon_pid"
	wait "$daemon_pid" 2>/dev/null || true
	start_daemon
}

job_field() { # job_field <id> <field> -> first scalar value of that field
	curl -sf "$base/jobs/$1" | sed -n "s/.*\"$2\":\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p" | head -1
}

all_done() {
	for id in $job_ids; do
		case "$(job_field "$id" state)" in
		done) ;;
		failed)
			echo "job $id FAILED: $(curl -sf "$base/jobs/$id")"
			exit 1
			;;
		*) return 1 ;;
		esac
	done
	return 0
}

build ptlserve ptlmon
mkdir -p "$data"
start_daemon

echo "== submitting $njobs jobs"
job_ids=""
n=1
while [ "$n" -le "$njobs" ]; do
	out=$(curl -sf -H "Idempotency-Key: soak-$n" -d "$spec" "$base/jobs")
	id=$(printf '%s' "$out" | json_id)
	if [ -z "$id" ]; then
		echo "submit $n got no job id: $out"
		exit 1
	fi
	job_ids="$job_ids $id"
	n=$((n + 1))
done
echo "   jobs:$job_ids"

round=1
while [ "$round" -le "$rounds" ]; do
	if all_done; then
		echo "== all jobs done after $((round - 1)) crash(es); stopping the chaos early"
		break
	fi
	delay=$(rand_ms "$round")
	sleep "$(awk -v ms="$delay" 'BEGIN{printf "%.3f", ms / 1000}')"
	echo "== round $round: SIGKILL daemon (pid $daemon_pid) after ${delay}ms"
	crash_daemon

	# Idempotent resubmission across the crash: the original job comes
	# back (HTTP 200, same id), no duplicate is admitted.
	want=$(printf '%s' "$job_ids" | awk '{print $1}')
	code_body=$(curl -s -w '\n%{http_code}' -H "Idempotency-Key: soak-1" -d "$spec" "$base/jobs")
	code=$(printf '%s' "$code_body" | tail -1)
	got=$(printf '%s' "$code_body" | json_id)
	if [ "$code" != "200" ] || [ "$got" != "$want" ]; then
		echo "idempotent resubmit after crash: code=$code id=$got want=200 id=$want"
		exit 1
	fi
	round=$((round + 1))
done

echo "== waiting for all jobs to finish"
i=0
until all_done; do
	i=$((i + 1))
	if [ "$i" -gt 1200 ]; then
		echo "jobs did not finish; states:"
		curl -sf "$base/jobs"
		exit 1
	fi
	sleep 0.5
done

echo "== verifying zero lost, zero duplicated, bit-identical output"
total=$(curl -sf "$base/jobs" | grep -o '"id":"' | wc -l | tr -d ' ')
if [ "$total" != "$njobs" ]; then
	echo "job count after $((round - 1)) crash(es): $total, want $njobs"
	exit 1
fi
ref_fnv=""
for id in $job_ids; do
	body=$(curl -sf "$base/jobs/$id")
	case "$body" in
	*'rsync ok'*) ;;
	*)
		echo "job $id guest output wrong: $body"
		exit 1
		;;
	esac
	fnv=$(printf '%s' "$body" | sed -n 's/.*"console_fnv":\([0-9]*\).*/\1/p')
	if [ -z "$ref_fnv" ]; then
		ref_fnv="$fnv"
	elif [ "$fnv" != "$ref_fnv" ]; then
		echo "job $id console FNV $fnv differs from $ref_fnv — not bit-identical"
		exit 1
	fi
done
echo "   $total/$njobs done, console_fnv=$ref_fnv for all"

echo "== one more SIGKILL: every job's status must come back byte-identical"
for id in $job_ids; do
	curl -sf "$base/jobs/$id" >"$bin/status.$id"
done
crash_daemon
for id in $job_ids; do
	if ! curl -sf "$base/jobs/$id" | cmp -s - "$bin/status.$id"; then
		echo "job $id reports differently after a restart:"
		curl -sf "$base/jobs/$id" | diff "$bin/status.$id" - || true
		exit 1
	fi
done
echo "   $njobs statuses unchanged"

echo "== jobs, from the recovered job store (ptlmon -inspect)"
"$bin/ptlmon" -inspect "$data" | sed 's/^/   /'

echo "== draining final daemon (SIGTERM)"
kill -TERM "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

echo "== service events (ptlmon -journal; survives torn writes from $((round - 1)) crashes)"
"$bin/ptlmon" -journal "$data/service.jsonl" | sed 's/^/   /'
echo "restart soak: OK ($((round - 1)) daemon crash(es), $njobs jobs, seed $seed)"
