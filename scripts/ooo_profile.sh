#!/bin/sh
# Host-time attribution of the out-of-order core loop: runs
# BenchmarkCoreCycle (internal/ooo/bench_test.go) under the CPU and
# allocation profilers and prints, for each guest, the share of
# Machine.Run spent in each pipeline stage of Core.Cycle, then in the
# machine's step function, its next-event clock (horizon, which asks
# each core's NextEvent) and the cache hierarchy's entry points (the
# miss buffers and the tag-array fill are what a miss-bound guest pays
# for besides the stages), then the top allocation sites. No simulator
# option is involved: this is `go test -bench` plus `go tool pprof`,
# three runs of the rsync guest and twelve of the memwalk-like one (a
# seventh of a second each since its quiet cycles are jumped over, so
# more of them for as many samples), output in ooo-profile-data/
# (git-ignored).
set -eu

out=ooo-profile-data
mkdir -p "$out"
out=$(cd "$out" && pwd)

stages='ooo\.\(\*Core\)\.(Cycle|commit|writeback|issue|execute|applyRedirects|rename|fetch)$'
around='core\.\(\*Machine\)\.(stepSim|horizon|skipTo|advance)$|ooo\.\(\*Core\)\.(NextEvent|nextEvent|SkipTo)$|cache\.\(\*Hierarchy\)\.(mshrAlloc|Store|Load)$|cache\.\(\*Cache\)\.Fill$'

# top prints the functions matching $1 as shares of Machine.Run.
top() {
	go tool pprof -top -cum -focus 'core\.\(\*Machine\)\.Run$' -relative_percentages -show "$1" \
		"$out/ooo.test" "$out/$guest.cpu.pprof" 2>/dev/null |
		grep -E 'flat%|ooo\.\(\*Core\)\.|core\.\(\*Machine\)\.|cache\.\(\*'
}

for run in rsync:3 memwalk-like:12; do
	guest=${run%:*}
	runs=${run#*:}
	echo "== BenchmarkCoreCycle/$guest ($runs runs)"
	go test ./internal/ooo/ -run '^$' -bench "BenchmarkCoreCycle/$guest\$" \
		-benchtime "${runs}x" -cpu 1 -o "$out/ooo.test" \
		-cpuprofile "$out/$guest.cpu.pprof" -memprofile "$out/$guest.mem.pprof" \
		-memprofilerate 4096 | grep '^Benchmark'
	echo "-- host time by stage, as a share of Machine.Run (cum = the stage and everything it calls; execute is part of issue)"
	top "$stages"
	echo "-- around the stages: the machine's step, the next-event clock and the cache hierarchy (Store is called from commit, Load from issue and the page walker)"
	top "$around"
	echo "-- allocation sites (bytes allocated over the whole run, boot included)"
	go tool pprof -sample_index=alloc_space -top -nodecount 8 "$out/ooo.test" "$out/$guest.mem.pprof" 2>/dev/null |
		sed -n '/flat%/,$p'
done
echo "profiles and the test binary are in $out (go tool pprof -list 'Core..issue' $out/ooo.test $out/rsync.cpu.pprof)"
