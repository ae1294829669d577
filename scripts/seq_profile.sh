#!/bin/sh
# Host-time attribution of the functional engine: runs BenchmarkSeqStep
# (internal/seqcore/bench_test.go) under the CPU and allocation
# profilers and prints, for each guest, the cumulative share of the
# functions on the engine's fetch / execute / memory path, then the top
# allocation sites. No simulator option is involved: this is `go test
# -bench` plus `go tool pprof`, three runs of the rsync guest (the
# memwalk-like one is 255k instructions, so it runs 50 times for as
# many samples), output in seq-profile-data/ (git-ignored).
set -eu

out=seq-profile-data
mkdir -p "$out"
out=$(cd "$out" && pwd)

funcs='seqcore\.\(\*Core\)\.(Step|fetchBB|run|exec|lower|loadValue|commitStores)$|seqcore\.(execUop|load|store)$|vm\.\(\*Context\)\.(Translate|ReadVirt)$|mem\.Walk$|mem\.\(\*PhysMem\)\.(Read|Write|WriteStore)$|bbcache\.\(\*Cache\)\.(Get|InvalidateStore)$|uops\.Exec$|runtime\.mapaccess'

for run in rsync:3 memwalk-like:50; do
	guest=${run%:*}
	runs=${run#*:}
	echo "== BenchmarkSeqStep/$guest ($runs runs)"
	go test ./internal/seqcore/ -run '^$' -bench "BenchmarkSeqStep/$guest\$" \
		-benchtime "${runs}x" -cpu 1 -o "$out/seq.test" \
		-cpuprofile "$out/$guest.cpu.pprof" -memprofile "$out/$guest.mem.pprof" \
		-memprofilerate 4096 | grep '^Benchmark'
	echo "-- host time by function, as a share of Machine.Run (cum = the function and everything it calls)"
	go tool pprof -top -cum -focus 'core\.\(\*Machine\)\.Run$' -relative_percentages -show "$funcs" \
		"$out/seq.test" "$out/$guest.cpu.pprof" 2>/dev/null |
		grep -E 'flat%|seqcore\.|vm\.|mem\.|bbcache\.|uops\.|runtime\.mapaccess'
	echo "-- allocation sites (bytes allocated over the whole run, boot included)"
	go tool pprof -sample_index=alloc_space -top -nodecount 8 "$out/seq.test" "$out/$guest.mem.pprof" 2>/dev/null |
		sed -n '/flat%/,$p'
done
echo "profiles and the test binary are in $out (go tool pprof -list 'Core..exec$' $out/seq.test $out/rsync.cpu.pprof)"
