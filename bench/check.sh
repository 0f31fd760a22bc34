#!/bin/bash
# Leave-nothing-behind check, for humans (go test runs the same three cases
# as TestLeavesNothingBehind). Builds the benchmark, ends it three ways —
# it finishes, it gets SIGTERM mid-job, its watchdog fires — and after each
# looks through /proc for a process still running the binary or a loopback
# port still listening that was not before.
set -u
cd "$(dirname "$0")" || exit 1
mkdir -p out
bin="$PWD/out/frieda-bench-check"
go build -o "$bin" . || exit 1
fail=0

listeners() { awk 'NR > 1 && $4 == "0A" && $2 ~ /^0100007F:/ { print $2 }' /proc/net/tcp | sort; }
before=$(listeners)

# check NAME: nothing of the run that just ended may be left.
check() {
	local bad=0 p exe extra
	for p in /proc/[0-9]*; do
		exe=$(readlink "$p/exe" 2>/dev/null) || continue
		if [ "${exe% (deleted)}" = "$bin" ]; then
			echo "FAIL $1: pid ${p#/proc/} still runs the benchmark"
			bad=1
		fi
	done
	extra=$(comm -13 <(echo "$before") <(listeners))
	if [ -n "$extra" ]; then
		echo "FAIL $1: loopback ports still listening:" $extra
		bad=1
	fi
	if [ $bad -eq 0 ]; then echo "ok   $1"; else fail=1; fi
}

"$bin" --workload rt_small_tcp --seconds 1 --scale 0.02 >/dev/null
status=$?
[ $status -eq 0 ] || { echo "FAIL finished run: exit status $status"; fail=1; }
check "finished run"

"$bin" --workload rt_small_tcp --seconds 30 >/dev/null 2>&1 &
pid=$!
sleep 1.5 # into the first job
kill -TERM $pid
wait $pid
status=$?
[ $status -ne 0 ] || { echo "FAIL SIGTERM mid-job: exit status 0"; fail=1; }
check "SIGTERM mid-job"

"$bin" --workload rt_bulk_tcp --seconds 30 --deadline 1s >/dev/null 2>out/check-watchdog.err
status=$?
[ $status -eq 3 ] || { echo "FAIL watchdog expiry: exit status $status, want 3"; fail=1; }
grep -q "partial result" out/check-watchdog.err || { echo "FAIL watchdog expiry: no partial result printed"; fail=1; }
check "watchdog expiry"

rm -f "$bin" out/check-watchdog.err
exit $fail
