#!/bin/sh
# Observability smoke: run a small simulation with the pipeline event
# log attached, render the captured ring through every exporter
# (Chrome trace JSON, Konata, text dump), then boot ptlserve, push one
# job through it, and scrape GET /metrics — asserting the Prometheus
# exposition carries live job-level series and that ptlmon renders the
# same numbers in its remote summary.
#
# SERVE_PORT picks the daemon listen port (default 17489).
set -eu

port="${SERVE_PORT:-17489}"
bin="$(mktemp -d)"
. "$(dirname "$0")/lib.sh"

build ptlsim ptlstats ptlserve ptlmon

echo "== simulating with -evlog"
"$bin/ptlsim" -scale bench -nfiles 1 -filesize 1024 -change 0.4 \
	-evlog "$bin/run.evlog.jsonl" >"$bin/report.txt"
grep -q '"evlog":1' "$bin/run.evlog.jsonl" || {
	echo "event log missing header"
	exit 1
}
events=$(($(wc -l <"$bin/run.evlog.jsonl") - 1))
if [ "$events" -lt 100 ]; then
	echo "event log suspiciously small: $events events"
	exit 1
fi
echo "   captured $events events"

echo "== rendering exporters"
"$bin/ptlstats" -pipeline "$bin/run.evlog.jsonl" -format chrome -o "$bin/trace.json"
head -c 1 "$bin/trace.json" | grep -q '\[' || {
	echo "chrome trace is not a JSON array"
	exit 1
}
grep -q '"ph":"X"' "$bin/trace.json" || {
	echo "chrome trace has no complete slices"
	exit 1
}
"$bin/ptlstats" -pipeline "$bin/run.evlog.jsonl" -format konata -o "$bin/trace.kanata"
head -1 "$bin/trace.kanata" | grep -q '^Kanata' || {
	echo "konata output missing header"
	exit 1
}
"$bin/ptlstats" -pipeline "$bin/run.evlog.jsonl" -format text -o "$bin/trace.txt"
grep -q 'commit' "$bin/trace.txt" || {
	echo "text dump records no commits"
	exit 1
}
echo "   chrome/konata/text exporters OK"

echo "== booting ptlserve"
spawn "$bin/ptlserve" -addr "127.0.0.1:$port" -data "$bin/data" -workers 1
daemon_pid=$!
wait_http "http://127.0.0.1:$port/healthz" "daemon never came up"

echo "== running one job"
curl -sf -d '{"scale":"bench","nfiles":1,"filesize":1024,"seed":5,"change":0.4,"timer":4000000000,"maxcycles":-1,"checkpoint_cycles":50000}' \
	"http://127.0.0.1:$port/jobs" >"$bin/submit.json"
id=$(json_id <"$bin/submit.json")
[ -n "$id" ] || {
	echo "no job id in submit response"
	exit 1
}
wait_job "http://127.0.0.1:$port" "$id"

echo "== scraping /metrics"
curl -sf "http://127.0.0.1:$port/metrics" >"$bin/metrics.txt"
for series in jobd_jobs_submitted jobd_jobs_done jobd_queue_depth jobd_breaker_open; do
	grep -q "^$series " "$bin/metrics.txt" || {
		echo "/metrics missing series $series:"
		cat "$bin/metrics.txt"
		exit 1
	}
done
grep -q '^jobd_jobs_done 1$' "$bin/metrics.txt" || {
	echo "jobd_jobs_done should be 1 after one job:"
	grep '^jobd_jobs' "$bin/metrics.txt"
	exit 1
}
sed 's/^/   /' "$bin/metrics.txt" | grep -E 'jobd_(jobs|queue|breaker)' | head -12

echo "== ptlmon remote summary"
"$bin/ptlmon" -addr "http://127.0.0.1:$port" >"$bin/mon.txt"
grep -q 'breaker open for' "$bin/mon.txt" || {
	echo "ptlmon summary missing metrics line:"
	cat "$bin/mon.txt"
	exit 1
}
sed 's/^/   /' "$bin/mon.txt"

kill -TERM "$daemon_pid"
wait "$daemon_pid"
echo "obs smoke: OK"
