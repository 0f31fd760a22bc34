#!/bin/sh
# Stress the race-detector tests of the packages named as arguments: each
# package runs 200 times at GOMAXPROCS 1 and then 2, beside one CPU-hog
# process, which this script starts and stops itself, so that interleavings
# a quiet machine never schedules get their turn. After each package and
# GOMAXPROCS it prints the run time, the failures per test, whether the test
# binary failed and any panic, so a run cut short still reports the phases
# it finished. It exits non-zero if anything failed.
#
#   sh scripts/stress.sh ./internal/netsim ./internal/simrun
#
# GO overrides the go command. Each go test runs under -timeout 3h: the 10m
# default cuts a 200-fold run short. The logs live in a temporary directory
# that is removed on exit.
set -u
GO=${GO:-go}
[ $# -gt 0 ] || { echo "usage: $0 PKG..." >&2; exit 2; }

logs=$(mktemp -d)
sh -c 'while :; do :; done' &
hog=$!
trap 'kill $hog 2>/dev/null; rm -rf "$logs"' EXIT
trap 'exit 130' INT TERM

failed=0
for pkg in "$@"; do
	for procs in 1 2; do
		log="$logs/run.log"
		start=$(date +%s)
		GOMAXPROCS=$procs "$GO" test -race -count=200 -timeout=3h "$pkg" >"$log" 2>&1 || failed=1
		echo "stress: $pkg GOMAXPROCS=$procs: $(($(date +%s) - start))s"
		grep -E '^[[:space:]]*--- FAIL: ' "$log" | awk '{print $3}' | sort | uniq -c | sort -rn |
			awk -v p="$procs" '{print "  " $2 " failed " $1 " of 200 runs at GOMAXPROCS=" p}'
		awk '$1 == "FAIL" && NF >= 2 {print "  package " $2 " failed"}' "$log"
		# A panic or a fatal error ends a test binary without a --- FAIL
		# line for the test that was running; show where.
		grep -E '^(panic:|fatal error:)' "$log" | sort | uniq -c | head -10
	done
done
kill $hog 2>/dev/null
wait $hog 2>/dev/null
if [ $failed -ne 0 ]; then
	echo "stress: failures"
	exit 1
fi
echo "stress: no failures"
