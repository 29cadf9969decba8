#!/usr/bin/env bash
# Interleaved A/B of the repo benchmark: ./benchmark of a parent revision
# against ./benchmark of the working tree, on one workload or on all of
# BENCHMARK.json's.
#
#   scripts/benchmark-ab.sh REV WORKLOAD|all [PAIRS] [SECONDS]
#   make benchmark-ab REV=HEAD~1 WORKLOAD=svc-update-coalesced PAIRS=10
#   make benchmark-ab REV=HEAD~1 WORKLOAD=all PAIRS=10
#   make benchmark-ab REV=HEAD~1 WORKLOAD=bench7-rw PAIRS=10 TRACE=1
#
# Each pair runs both sides on the same fresh seed; which side goes first
# alternates per pair. Prints every run, then per end-to-end metric each
# side's quartiles and median and the pairs the change won — with "all",
# the workloads back to back, one such block each, so "the claimed row
# moves and the other three do not" is one command. With TRACE=1 in the
# environment each workload's timed pairs are followed by one `-trace 1`
# pair on a further seed, and the per-layer metrics that are non-zero on
# either side are printed parent beside change with the difference, so
# "the claimed row moves and these counts do not" is the same command.
# Exits non-zero if any run is not "correct". REV is exported with `git archive` into
# .bench_build/ab/ (the ignored scratch directory the benchmark itself
# uses), so nothing is registered in .git and a dirty tree is fine.
set -euo pipefail

usage="usage: benchmark-ab.sh REV WORKLOAD|all [PAIRS] [SECONDS]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-24}
go=${GO:-go}
trace=${TRACE:-}

cd "$(git rev-parse --show-toplevel)"
ab=$PWD/.bench_build/ab
rm -rf "$ab"
mkdir -p "$ab/parent"
git archive "$rev" | tar -x -C "$ab/parent"
(cd "$ab/parent" && $go build -o "$ab/bench.parent" ./benchmark)
$go build -o "$ab/bench.change" ./benchmark

workloads=$workload
if [ "$workload" = all ]; then
	workloads=$(sed -nE 's/.*\{"name": "([^"]+)", "why".*/\1/p' BENCHMARK.json)
fi

# field LINE NAME: the number after "NAME": (or "NAME": {"value":) in the
# benchmark's closing JSON line.
field() { sed -E "s/.*\"$2\": (\{\"value\": )?([-0-9.e+]+).*/\2/" <<<"$1"; }

# quartiles FILE: "q1 median q3" by linear interpolation.
quartiles() {
	sort -g "$1" | awk '{v[NR] = $1} END {
		for (k = 1; k <= 3; k++) {
			p = 1 + (NR - 1) * k / 4; lo = int(p); hi = lo < NR ? lo + 1 : lo
			printf "%.6g ", v[lo] + (v[hi] - v[lo]) * (p - lo)
		}
	}'
}
sum() { awk '{s += $1} END {print s + 0}' "$1"; }

# layers LINE: "name value unit" per metric of the closing JSON line.
layers() {
	grep -oE '"[a-z0-9_.]+": \{"value": [-0-9.e+]+, "unit": "[^"]*"\}' <<<"$1" |
		sed -E 's/"([^"]+)": \{"value": ([^,]+), "unit": "([^"]*)"\}/\1 \2 \3/'
}

# traced WORKLOAD: one -trace 1 run per side on the seed after the timed
# pairs', per-layer metrics side by side.
traced() {
	local w=$1 out=$ab/$1 seed=$((seed0 + pairs + 1))
	echo "traced pair $w: -trace 1, -seconds $seconds, seed $seed"
	for side in parent change; do
		json=$("$ab/bench.$side" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 1 | tail -n 1)
		grep -q '"correct": true' <<<"$json" || bad=1
		layers "$json" | LC_ALL=C sort >"$out.$side.layers"
	done
	printf '%-34s %14s %14s %9s  %s\n' metric parent change delta unit
	LC_ALL=C join "$out.parent.layers" "$out.change.layers" | awk '$2 != 0 || $4 != 0 {
		delta = $2 != 0 ? sprintf("%+.1f %%", 100 * ($4 / $2 - 1)) : "new"
		printf "%-34s %14.6g %14.6g %9s  %s\n", $1, $2, $4, delta, $3
	}'
	echo
}

seed0=$(( $(date +%s) % 100000 * 100 ))
bad=0

# ab WORKLOAD: the pairs and the summary block of one workload.
ab() {
	local w=$1 out=$ab/$1
	echo "A/B $w: parent $(git rev-parse --short "$rev") vs working tree, $pairs pairs, -seconds $seconds, seeds $((seed0 + 1))..$((seed0 + pairs))"
	for ((i = 1; i <= pairs; i++)); do
		order="parent change"
		((i % 2 == 0)) && order="change parent"
		for side in $order; do
			json=$("$ab/bench.$side" -workload "$w" -seed $((seed0 + i)) -seconds "$seconds" -trace 0 | tail -n 1)
			grep -q '"correct": true' <<<"$json" || bad=1
			printf 'pair %2d %-6s %s\n' "$i" "$side" "$json"
			for m in ops_per_s setup_s mem_mb failed; do
				field "$json" "$m" >>"$out.$side.$m"
			done
		done
	done

	echo
	for m in ops_per_s setup_s mem_mb; do
		better=">"
		[ "$m" = ops_per_s ] || better="<"
		wins=$(paste "$out.parent.$m" "$out.change.$m" | awk "\$2 $better \$1" | wc -l)
		read -r pq1 pmed pq3 <<<"$(quartiles "$out.parent.$m")"
		read -r cq1 cmed cq3 <<<"$(quartiles "$out.change.$m")"
		awk -v m="$m" -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" \
			-v wins="$wins" -v pairs="$pairs" 'BEGIN {
			printf "%-10s parent q1/med/q3 %s / %s / %s   change %s / %s / %s   median %+.1f %% (parent IQR %.1f %%)   change wins %d/%d\n",
				m, pq1, pmed, pq3, cq1, cmed, cq3, 100 * (cmed / pmed - 1), 100 * (pq3 - pq1) / pmed, wins, pairs
		}'
	done
	echo "failed     parent $(sum "$out.parent.failed")   change $(sum "$out.change.failed")"
	echo
}

for w in $workloads; do
	ab "$w"
	if [ "$trace" = 1 ]; then
		traced "$w"
	fi
done
if ((bad)); then
	echo "benchmark-ab: a run was not correct" >&2
	exit 1
fi
