#!/usr/bin/env bash
# Interleaved A/B of the repo benchmark: ./benchmark of a parent revision
# against ./benchmark of the working tree, on one workload or on all of
# BENCHMARK.json's.
#
#   scripts/benchmark-ab.sh REV WORKLOAD|all [PAIRS] [SECONDS]
#   make benchmark-ab REV=HEAD~1 WORKLOAD=svc-update-coalesced PAIRS=10
#   make benchmark-ab REV=HEAD~1 WORKLOAD=all PAIRS=10
#   make benchmark-ab REV=HEAD~1 WORKLOAD=bench7-rw PAIRS=10 TRACE=1
#   make benchmark-ab REV=HEAD~1 WORKLOAD=all PAIRS=10 CLAIM=ops_per_s@svc-update-coalesced
#
# Each pair runs both sides on the same fresh seed; which side goes first
# alternates per pair. Prints every run, then per end-to-end metric each
# side's quartiles and median and the pairs the change won — with "all",
# the workloads back to back, one such block each, so "the claimed row
# moves and the other three do not" is one command. With TRACE=1 in the
# environment each workload's timed pairs are followed by `-trace 1` runs
# on three further seeds: the parent on all three, the change on the
# first two. The per-layer metrics that are non-zero on either side are
# printed, the parent's three runs beside the change's two with the
# change's median difference, so "the claimed row moves and these counts
# do not" is the same command. The count metrics (unit count or ratio:
# the *_per_op, *_share and items_per_batch rows) come first, each then
# judged on one line: "moved" only when both change runs fall outside the
# parent's min-max range widened by 1 %, on the same side, else "same";
# the range is printed with the verdict, since two-thread counts move
# with the interleaving alone and two parent runs did not bound that
# spread. The rate- and time-valued rows
# (<engine>.*_ops_per_s, *_ns, *_us) follow apart, under "advisory: rates
# and times, no verdict": a few runs cannot resolve a 10-20 % change in a
# rate, so a rate row needs timed pairs of its own before it supports a
# claim.
# Each block ends with one verdict line per end-to-end metric, judged
# against the metric's bound in BENCHMARK.json: for the pairing named in
# CLAIM=<metric>@<workload>, "claim met" when the change wins at least nine
# pairs in ten and the medians differ by more than the parent's q3-q1,
# else "claim not met"; for every other pairing "not worse" (the change's
# median is within the bound of the parent's), "worse", or "unresolved"
# when either side's middle half is wider than the bound, unless every run
# of the change beats every run of the parent. A workload with an
# "unresolved" row gets a second session of PAIRS pairs on fresh seeds,
# printed below the first with its own verdicts; a noisy row (e.g.
# kv-hot-transfer's sub-millisecond setup_s) then needs no manual rerun.
# Verdicts do not change the exit status. Exits non-zero if any run is not
# "correct".
# The first line printed names the host: cores, go version, CPU model,
# kernel and both revisions. The script ends by writing .bench_build/ab/
# summary.tsv: that host line as a `#` comment, then one row per workload
# and end-to-end metric with each side's q1, median and q3, the pairs the
# change won, the verdict and the seeds (a second session's rows follow
# its first's, told apart by their seeds), so a report cites the table, not
# the raw runs, which stay in the printed log. REV is exported
# with `git archive` into .bench_build/ab/ (the ignored scratch directory
# the benchmark itself uses), so nothing is registered in .git and a dirty
# tree is fine.
set -euo pipefail

usage="usage: benchmark-ab.sh REV WORKLOAD|all [PAIRS] [SECONDS]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-24}
go=${GO:-go}
trace=${TRACE:-}
claim=${CLAIM:-}

cd "$(git rev-parse --show-toplevel)"
ab=$PWD/.bench_build/ab
rm -rf "$ab"
mkdir -p "$ab/parent"
git archive "$rev" | tar -x -C "$ab/parent"
(cd "$ab/parent" && $go build -o "$ab/bench.parent" ./benchmark)
$go build -o "$ab/bench.change" ./benchmark

host="host: $(nproc) cores, $($go env GOVERSION) $($go env GOOS)/$($go env GOARCH), $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1), kernel $(uname -r), parent $(git rev-parse --short "$rev"), change $(git describe --always --dirty)"
echo "$host"
summary=$ab/summary.tsv
printf '# %s\n' "$host" >"$summary"
printf 'workload\tmetric\tparent_q1\tparent_median\tparent_q3\tchange_q1\tchange_median\tchange_q3\twins\tpairs\tverdict\tseeds\n' >>"$summary"

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

# declared METRIC KEY: the metric's "bound" or "better" in BENCHMARK.json.
declared() { sed -nE "s/.*\{\"name\": \"$1\",.*\"$2\": \"?([a-z0-9.]+)\"?.*/\1/p" BENCHMARK.json; }

# layers LINE: "name value unit" per metric of the closing JSON line.
layers() {
	grep -oE '"[a-z0-9_.]+": \{"value": [-0-9.e+]+, "unit": "[^"]*"\}' <<<"$1" |
		sed -E 's/"([^"]+)": \{"value": ([^,]+), "unit": "([^"]*)"\}/\1 \2 \3/'
}

# traced WORKLOAD: -trace 1 runs of the parent on the three seeds after
# the timed pairs' and of the change on the first two, per-layer metrics
# side by side, then a verdict per count: moved when both change runs lie
# outside the parent's min-max range widened by 1 %, on the same side.
traced() {
	local w=$1 out=$ab/$1 seed=$((seed0 + pairs + 1))
	echo "traced runs $w: -trace 1, -seconds $seconds, parent on seeds $seed..$((seed + 2)), change on $seed and $((seed + 1))"
	for run in parent:$seed parent2:$((seed + 1)) parent3:$((seed + 2)) change:$seed change2:$((seed + 1)); do
		json=$("$ab/bench.${run%%[23:]*}" -workload "$w" -seed "${run#*:}" -seconds "$seconds" -trace 1 | tail -n 1)
		grep -q '"correct": true' <<<"$json" || bad=1
		layers "$json" | LC_ALL=C sort >"$out.${run%:*}.layers"
	done
	LC_ALL=C join -o 0,1.2,2.2,1.3 "$out.parent.layers" "$out.parent2.layers" |
		LC_ALL=C join -o 0,1.2,1.3,2.2,1.4 - "$out.parent3.layers" |
		LC_ALL=C join -o 0,1.2,1.3,1.4,2.2,1.5 - "$out.change.layers" |
		LC_ALL=C join -o 0,1.2,1.3,1.4,1.5,2.2,1.6 - "$out.change2.layers" |
		awk -v w="$w" '$2 != 0 || $3 != 0 || $4 != 0 || $5 != 0 || $6 != 0 {
		lo = $2; hi = $2
		for (i = 3; i <= 4; i++) { if ($i < lo) lo = $i; if ($i > hi) hi = $i }
		pmed = $2 + $3 + $4 - lo - hi; cmed = ($5 + $6) / 2
		delta = pmed != 0 ? sprintf("%+.1f %%", 100 * (cmed / pmed - 1)) : "new"
		row = sprintf("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %9s  %s", $1, $2, $3, $4, $5, $6, delta, $7)
		if ($7 != "count" && $7 != "ratio") {
			adv[++a] = row
			next
		}
		rows[++n] = row
		wlo = lo - 0.01 * (lo < 0 ? -lo : lo); whi = hi + 0.01 * (hi < 0 ? -hi : hi)
		moved = ($5 < wlo && $6 < wlo) || ($5 > whi && $6 > whi)
		fmt = moved ? "moved (%.6g, %.6g outside %.6g..%.6g)" : "same (%.6g, %.6g against %.6g..%.6g)"
		counts[n] = sprintf("count      %s@%s: " fmt, $1, w, $5, $6, wlo, whi)
	} END {
		head = sprintf("%-34s %12s %12s %12s %12s %12s %9s  %s", "metric", "parent", "parent2", "parent3", "change", "change2", "delta", "unit")
		print head
		for (i = 1; i <= n; i++) print rows[i]
		for (i = 1; i <= n; i++) print counts[i]
		print "advisory: rates and times, no verdict"
		print head
		for (i = 1; i <= a; i++) print adv[i]
	}'
	echo
}

seed0=$(( $(date +%s) % 100000 * 100 ))
bad=0

# verdict OUT WORKLOAD METRIC BETTER WINS "PQ1 PMED PQ3" "CQ1 CMED CQ3":
# the judgement of one pairing (BETTER is > or <) from the runs under OUT.
verdict() {
	local out=$1.
	shift
	# The change's worst run against the parent's best, in the metric's direction.
	local worst=tail best=head
	[ "$3" = '<' ] || { worst=head best=tail; }
	awk -v w="$1" -v m="$2" -v dir="$([ "$3" = '>' ] && echo 1 || echo -1)" -v wins="$4" -v pq="$5" -v cq="$6" \
		-v pairs="$pairs" -v bound="$(declared "$2" bound)" -v claimed="$([ "$claim" = "$2@$1" ] && echo 1)" \
		-v worst="$(sort -g "$out"change."$2" | $worst -n 1)" -v best="$(sort -g "$out"parent."$2" | $best -n 1)" 'BEGIN {
		split(pq, p, " "); split(cq, c, " ")
		gain = dir * (c[2] - p[2]); piqr = p[3] - p[1]; ciqr = c[3] - c[1]
		if (claimed) {
			v = (wins * 10 >= pairs * 9 && gain > piqr) ? "claim met" : "claim not met"
			why = sprintf("wins %d/%d, median gap %.4g against parent q3-q1 %.4g", wins, pairs, gain, piqr)
		} else if ((piqr > bound * p[2] || ciqr > bound * p[2]) && dir * (worst - best) <= 0) {
			v = "unresolved"
			why = sprintf("middle halves %.4g and %.4g, bound %.4g", piqr, ciqr, bound * p[2])
		} else {
			v = -gain <= bound * p[2] ? "not worse" : "worse"
			why = sprintf("median %+.1f %%, bound %g %%", 100 * (c[2] / p[2] - 1), 100 * bound)
		}
		printf "verdict    %s@%s: %s (%s)\n", m, w, v, why
	}'
}

# ab WORKLOAD BASE OUT: the pairs, on seeds BASE+1..BASE+PAIRS, and the
# summary block of one workload, runs kept under OUT. It sets unresolved
# when a verdict reads so.
ab() {
	local w=$1 base=$2 out=$3
	local seeds="$((base + 1))..$((base + pairs))"
	echo "A/B $w: parent $(git rev-parse --short "$rev") vs working tree, $pairs pairs, -seconds $seconds, seeds $seeds"
	for ((i = 1; i <= pairs; i++)); do
		order="parent change"
		((i % 2 == 0)) && order="change parent"
		for side in $order; do
			json=$("$ab/bench.$side" -workload "$w" -seed $((base + i)) -seconds "$seconds" -trace 0 | tail -n 1)
			grep -q '"correct": true' <<<"$json" || bad=1
			printf 'pair %2d %-6s %s\n' "$i" "$side" "$json"
			for m in ops_per_s setup_s mem_mb failed; do
				field "$json" "$m" >>"$out.$side.$m"
			done
		done
	done

	echo
	local verdicts=()
	for m in ops_per_s setup_s mem_mb; do
		better=">"
		[ "$(declared "$m" better)" = higher ] || better="<"
		wins=$(paste "$out.parent.$m" "$out.change.$m" | awk "\$2 $better \$1" | wc -l)
		read -r pq1 pmed pq3 <<<"$(quartiles "$out.parent.$m")"
		read -r cq1 cmed cq3 <<<"$(quartiles "$out.change.$m")"
		awk -v m="$m" -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" \
			-v wins="$wins" -v pairs="$pairs" 'BEGIN {
			printf "%-10s parent q1/med/q3 %s / %s / %s   change %s / %s / %s   median %+.1f %% (parent IQR %.1f %%)   change wins %d/%d\n",
				m, pq1, pmed, pq3, cq1, cmed, cq3, 100 * (cmed / pmed - 1), 100 * (pq3 - pq1) / pmed, wins, pairs
		}'
		v=$(verdict "$out" "$w" "$m" "$better" "$wins" "$pq1 $pmed $pq3" "$cq1 $cmed $cq3")
		[[ $v == *": unresolved ("* ]] && unresolved=1
		verdicts+=("$v")
		printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%s\t%s\n' "$w" "$m" "$pq1" "$pmed" "$pq3" "$cq1" "$cmed" "$cq3" \
			"$wins" "$pairs" "$(sed -E 's/^[^:]*: (.*) \(.*\)$/\1/' <<<"$v")" "$seeds" >>"$summary"
	done
	echo "failed     parent $(sum "$out.parent.failed")   change $(sum "$out.change.failed")"
	printf '%s\n' "${verdicts[@]}"
	echo
}

for w in $workloads; do
	unresolved=0
	ab "$w" "$seed0" "$ab/$w"
	if ((unresolved)); then
		echo "second session $w: a row read unresolved"
		ab "$w" $((seed0 + pairs + 3)) "$ab/$w.2"
	fi
	if [ "$trace" = 1 ]; then
		traced "$w"
	fi
done
echo "summary: $summary"
if ((bad)); then
	echo "benchmark-ab: a run was not correct" >&2
	exit 1
fi
