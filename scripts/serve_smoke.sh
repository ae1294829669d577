#!/bin/sh
# ptlserve smoke: boot the job service, submit a small simulation job
# over HTTP, poll it to completion, check the guest output inside the
# result, exercise the health/stats endpoints, drain on SIGTERM, and
# render the job store and the service journal through ptlmon.
#
# SERVE_PORT picks the listen port (default 17483). SERVE_DATA pins the
# service data directory (default: inside the temp build dir) — CI sets
# it to a workspace path so journals and per-job checkpoint directories
# survive as artifacts when the smoke fails.
set -eu

port="${SERVE_PORT:-17483}"
bin="$(mktemp -d)"
data="${SERVE_DATA:-$bin/data}"
. "$(dirname "$0")/lib.sh"

build ptlserve ptlmon

spawn "$bin/ptlserve" -addr "127.0.0.1:$port" -data "$data" -workers 1
daemon_pid=$!
wait_http "http://127.0.0.1:$port/healthz" "daemon never came up"

echo "== submitting job"
curl -sf -d '{"scale":"bench","nfiles":1,"filesize":1024,"seed":5,"change":0.4,"timer":4000000000,"maxcycles":-1,"checkpoint_cycles":50000}' \
	"http://127.0.0.1:$port/jobs" >"$bin/submit.json"
cat "$bin/submit.json"
echo

id=$(json_id <"$bin/submit.json")
if [ -z "$id" ]; then
	echo "no job id in submit response"
	exit 1
fi

echo "== polling job $id"
wait_job "http://127.0.0.1:$port" "$id"

case "$st" in
*'rsync ok'*) echo "guest output OK" ;;
*)
	echo "guest output wrong: $st"
	exit 1
	;;
esac

echo "== service counters"
curl -sf "http://127.0.0.1:$port/statz"
echo

echo "== inspecting job checkpoints"
"$bin/ptlmon" -inspect "$data/jobs/$id/ckpt" | sed 's/^/   /'

echo "== draining (SIGTERM)"
kill -TERM "$daemon_pid"
wait "$daemon_pid"

echo "== jobs, from the job store (ptlmon -inspect)"
"$bin/ptlmon" -inspect "$data" | sed 's/^/   /'

echo "== service events (ptlmon -journal)"
"$bin/ptlmon" -journal "$data/service.jsonl" | sed 's/^/   /'
echo "serve smoke: OK"
