#!/usr/bin/env bash
# The performance gate CI's bench job runs, built on the repository benchmark
# (bench/, see bench/README.md). Run it from the repository root; it runs the
# same commands locally as in CI (about 80 s on two cores):
#
#   bash .github/workflows/bench-gate.sh
#
# Under GOMAXPROCS=2 it makes one traced run of every workload,
#
#   bash bench/run.sh --workload W --seed 1 --seconds 10 --trace 1
#
# keeps each run's two output lines in .bench_build/gate/W.jsonl, and fails
# when any of these happens:
#
#   - a run exits non-zero: an op failed its output check, a scalar oracle,
#     its replay, or the one-worker replay that must equal the default-worker
#     one;
#   - sweep-lockstep's trace.stream_overhead (a streamed sweep's time over the
#     same sweep unobserved) exceeds max_stream_overhead;
#   - a workload's core.scalar_over_batch (scalar replay time over batch
#     replay time on the same seeds, in the same process) falls below its
#     floor;
#   - colony-1m's sim.shard_speedup (its colony's one-worker replay time over
#     the same colony's time on the default budget, two shards under
#     GOMAXPROCS=2) falls below min_shard_speedup: two shards no longer beat
#     one.
#
# All three ratios divide two timings taken back to back on one host, so they
# do not follow the host's speed the way raw times do. The limits come from
# repeated runs on a 2-core Xeon shared with other tenants, listed in
# CHANGES.md: every value those runs read at these settings clears them, and
# a build whose batch lane rounds take twice as long reads below the sweep
# and emigration floors. colony-1m's scalar ratio is a single sample whose
# spread on unchanged code reaches down into what such a build reads, so its
# floor catches only larger regressions. The shard-speedup floor is 1.0: five
# runs of the polling shard pool read 1.15-1.57, while the parked pool before
# it read 0.63-1.24, so a pool whose hand-offs cost more than the second shard
# saves fails. A change may lower a floor only with its reason in CHANGES.md.
set -uo pipefail

export GOMAXPROCS=2
seed=1
seconds=10
max_stream_overhead=1.20
min_shard_speedup=1.0
declare -A floor=(
	[sweep-lockstep]=7.0
	[sweep-general]=3.3
	[colony-1m]=5.0
	[emigration]=3.5
)
workloads=(sweep-lockstep sweep-general colony-1m emigration)

out=.bench_build/gate
mkdir -p "$out"
failures=0
fail() {
	echo "bench-gate: FAIL $*" >&2
	failures=$((failures + 1))
}

# metric prints the value of metric $2 from the result line of run file $1.
metric() {
	tail -n 1 "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

# below reports whether $1 < $2 as floats.
below() {
	awk -v a="$1" -v b="$2" 'BEGIN { exit !(a < b) }'
}

for w in "${workloads[@]}"; do
	file="$out/$w.jsonl"
	if ! bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 >"$file"; then
		fail "$w: bench/run.sh exited non-zero (a failed op, or the run did not finish)"
		continue
	fi
	ratio=$(metric "$file" core.scalar_over_batch)
	if [ -z "$ratio" ]; then
		fail "$w: no core.scalar_over_batch in $file"
	elif below "$ratio" "${floor[$w]}"; then
		fail "$w: core.scalar_over_batch $ratio is below its floor ${floor[$w]}"
	else
		echo "bench-gate: $w core.scalar_over_batch $ratio (floor ${floor[$w]})"
	fi
	if [ "$w" = colony-1m ]; then
		speedup=$(metric "$file" sim.shard_speedup)
		if [ -z "$speedup" ]; then
			fail "$w: no sim.shard_speedup in $file"
		elif below "$speedup" "$min_shard_speedup"; then
			fail "$w: sim.shard_speedup $speedup is below its floor $min_shard_speedup"
		else
			echo "bench-gate: $w sim.shard_speedup $speedup (floor $min_shard_speedup)"
		fi
	fi
	if [ "$w" = sweep-lockstep ]; then
		overhead=$(metric "$file" trace.stream_overhead)
		if [ -z "$overhead" ]; then
			fail "$w: no trace.stream_overhead in $file"
		elif below "$max_stream_overhead" "$overhead"; then
			fail "$w: trace.stream_overhead $overhead exceeds $max_stream_overhead"
		else
			echo "bench-gate: $w trace.stream_overhead $overhead (max $max_stream_overhead)"
		fi
	fi
done

if [ "$failures" -gt 0 ]; then
	echo "bench-gate: $failures check(s) failed" >&2
	exit 1
fi
echo "bench-gate: all checks passed"
