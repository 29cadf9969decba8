#!/usr/bin/env bash
# Interleaved A/B of the repo benchmark: ./benchmark of a parent revision
# against ./benchmark of the working tree, on one workload.
#
#   scripts/benchmark-ab.sh REV WORKLOAD [PAIRS] [SECONDS]
#   make benchmark-ab REV=HEAD~1 WORKLOAD=svc-update-coalesced PAIRS=10
#
# Each pair runs both sides on the same fresh seed; which side goes first
# alternates per pair. Prints every run, then per end-to-end metric each
# side's quartiles and median and the pairs the change won. Exits non-zero
# if any run is not "correct". REV is exported with `git archive` into
# .bench_build/ab/ (the ignored scratch directory the benchmark itself
# uses), so nothing is registered in .git and a dirty tree is fine.
set -euo pipefail

usage="usage: benchmark-ab.sh REV WORKLOAD [PAIRS] [SECONDS]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-24}
go=${GO:-go}

cd "$(git rev-parse --show-toplevel)"
ab=$PWD/.bench_build/ab
rm -rf "$ab"
mkdir -p "$ab/parent"
git archive "$rev" | tar -x -C "$ab/parent"
(cd "$ab/parent" && $go build -o "$ab/bench.parent" ./benchmark)
$go build -o "$ab/bench.change" ./benchmark

seed0=$(( $(date +%s) % 100000 * 100 ))
echo "A/B $workload: parent $(git rev-parse --short "$rev") vs working tree, $pairs pairs, -seconds $seconds, seeds $((seed0 + 1))..$((seed0 + pairs))"

# field LINE NAME: the number after "NAME": (or "NAME": {"value":) in the
# benchmark's closing JSON line.
field() { sed -E "s/.*\"$2\": (\{\"value\": )?([-0-9.e+]+).*/\2/" <<<"$1"; }

bad=0
for ((i = 1; i <= pairs; i++)); do
	order="parent change"
	((i % 2 == 0)) && order="change parent"
	for side in $order; do
		json=$("$ab/bench.$side" -workload "$workload" -seed $((seed0 + i)) -seconds "$seconds" -trace 0 | tail -n 1)
		grep -q '"correct": true' <<<"$json" || bad=1
		printf 'pair %2d %-6s %s\n' "$i" "$side" "$json"
		for m in ops_per_s setup_s mem_mb failed; do
			field "$json" "$m" >>"$ab/$side.$m"
		done
	done
done

# quartiles FILE: "q1 median q3" by linear interpolation.
quartiles() {
	sort -g "$1" | awk '{v[NR] = $1} END {
		for (k = 1; k <= 3; k++) {
			p = 1 + (NR - 1) * k / 4; lo = int(p); hi = lo < NR ? lo + 1 : lo
			printf "%.6g ", v[lo] + (v[hi] - v[lo]) * (p - lo)
		}
	}'
}

echo
for m in ops_per_s setup_s mem_mb; do
	better=">"
	[ "$m" = ops_per_s ] || better="<"
	wins=$(paste "$ab/parent.$m" "$ab/change.$m" | awk "\$2 $better \$1" | wc -l)
	read -r pq1 pmed pq3 <<<"$(quartiles "$ab/parent.$m")"
	read -r cq1 cmed cq3 <<<"$(quartiles "$ab/change.$m")"
	awk -v m="$m" -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" \
		-v wins="$wins" -v pairs="$pairs" 'BEGIN {
		printf "%-10s parent q1/med/q3 %s / %s / %s   change %s / %s / %s   median %+.1f %% (parent IQR %.1f %%)   change wins %d/%d\n",
			m, pq1, pmed, pq3, cq1, cmed, cq3, 100 * (cmed / pmed - 1), 100 * (pq3 - pq1) / pmed, wins, pairs
	}'
done
sum() { awk '{s += $1} END {print s + 0}' "$1"; }
echo "failed     parent $(sum "$ab/parent.failed")   change $(sum "$ab/change.failed")"
if ((bad)); then
	echo "benchmark-ab: a run was not correct" >&2
	exit 1
fi
