#!/bin/sh
# README's distributed recipe over TCP loopback, end to end: frieda-datagen
# writes 8 frames, then a frieda-master, two frieda-workers and a
# frieda-controller run as separate processes with a pre-partitioned,
# pairwise-adjacent strategy and frieda-imgcmp as the program; last, the
# all-in-one frieda launcher runs the same job from a -config file. Each
# process runs under `timeout 60` and must exit 0, the controller's and the
# launcher's reports must say `0 failed`, and the master must print its
# `done` line.
#
#	sh scripts/smoke-daemons.sh          (or: make smoke-daemons)
#
# GO names the go command (default go); SMOKE_ADDR the master's address
# (default 127.0.0.1:7391).
set -eu
GO=${GO:-go}
addr=${SMOKE_ADDR:-127.0.0.1:7391}
tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$tmp"' EXIT

fail() {
	echo "smoke-daemons: $*" >&2
	for f in "$tmp"/*.log; do
		echo "--- $f" >&2
		cat "$f" >&2
	done
	exit 1
}

$GO build -o "$tmp/bin/" ./cmd/frieda ./cmd/frieda-controller ./cmd/frieda-datagen \
	./cmd/frieda-imgcmp ./cmd/frieda-master ./cmd/frieda-worker
PATH="$tmp/bin:$PATH"
export PATH

timeout 60 frieda-datagen -kind images -n 8 -width 64 -out "$tmp/frames" >"$tmp/datagen.log" 2>&1 ||
	fail "frieda-datagen exited $?"

timeout 60 frieda-master -addr "$addr" -input "$tmp/frames" >"$tmp/master.log" 2>&1 &
master=$!
timeout 60 frieda-worker -master "$addr" -name w0 -cores 2 -workdir "$tmp/w0" >"$tmp/w0.log" 2>&1 &
w0=$!
timeout 60 frieda-worker -master "$addr" -name w1 -cores 2 -workdir "$tmp/w1" >"$tmp/w1.log" 2>&1 &
w1=$!
timeout 60 frieda-controller -master "$addr" -workers 2 -mode pre-partition \
	-grouping pairwise-adjacent -template 'frieda-imgcmp $inp1 $inp2' >"$tmp/controller.log" 2>&1 ||
	fail "frieda-controller exited $?"
for p in master:$master w0:$w0 w1:$w1; do
	wait "${p#*:}" || fail "${p%:*} exited $?"
done
grep -q ', 0 failed)' "$tmp/controller.log" || fail "the controller's report has failures"
grep -q 'frieda-master: done' "$tmp/master.log" || fail "the master never printed its done line"

cat >"$tmp/job.json" <<JOB
{
  "name": "smoke",
  "input": "$tmp/frames",
  "template": ["frieda-imgcmp", "\$inp1", "\$inp2"],
  "workers": 2,
  "cores_per_worker": 2,
  "strategy": {"mode": "pre-partition", "grouping": "pairwise-adjacent", "multicore": true}
}
JOB
timeout 60 frieda -config "$tmp/job.json" >"$tmp/frieda.log" 2>&1 || fail "frieda exited $?"
grep -q ', 0 failed)' "$tmp/frieda.log" || fail "the launcher's report has failures"
grep -h 'groups:' "$tmp/controller.log" "$tmp/frieda.log"
echo "smoke-daemons: ok"
