#!/usr/bin/env bash
# Static comparison of the word engines' hot paths against a revision, from
# the compiler's own output.
#
#   scripts/hotpath.sh REV
#   make hotpath REV=HEAD~1
#
# REV is exported with `git archive` into a `mktemp -d` outside the working
# tree. On both sides internal/swisstm, internal/tl2 and internal/tinystm are
# built with -gcflags=<pkg>=-S, and for each of load, loadRO, store, commit,
# validate, extend and releaseWLocks that an engine defines, the script
# prints one row per CALL target (runtime bounds-check panics included) with
# its count, and one "atomics" row: the LOCK-prefixed instructions plus the
# XCHGs with a memory operand. On amd64 every sync/atomic store is such an
# XCHG and every Add or CompareAndSwap a LOCK-prefixed instruction, so the
# row counts the function's fences; XCHGL AX, AX, the compiler's inline-mark
# no-op, is not counted. A call that stops being inlined, a bounds check
# that appears or goes, or an atomic operation added or removed shows up as
# a row whose two counts differ. Rows print as "engine function item parent
# change", a differing row marked "<>"; the exit status is non-zero when any
# row differs. It needs amd64 for the instruction names.
set -euo pipefail

rev=${1:?usage: hotpath.sh REV}
go=${GO:-go}

cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

# rows DIR prints the sorted "engine|function|item count" rows of the tree
# in DIR.
rows() {
	(
		cd "$1"
		for eng in swisstm tl2 tinystm; do
			pkg=$($go list "./internal/$eng")
			$go build -gcflags="$pkg=-S" "./internal/$eng" 2>&1 |
				awk -F'\t' -v eng="$eng" '
					/^[^\t]/ && / STEXT / {
						fn = $1; sub(/ .*/, "", fn); sub(/.*\(\*txn\)\./, "", fn)
						hot = fn ~ /^(load|loadRO|store|commit|validate|extend|releaseWLocks)$/
						if (hot) n[eng "|" fn "|atomics"] += 0
						next
					}
					!hot || NF < 4 { next }
					$3 == "CALL" { t = $4; sub(/\(SB\)$/, "", t); n[eng "|" fn "|call:" t]++ }
					$3 == "LOCK" || ($3 ~ /^XCHG/ && $4 ~ /\(/) { n[eng "|" fn "|atomics"]++ }
					END { for (k in n) print k, n[k] }'
		done | LC_ALL=C sort
	)
}

rows "$tmp/parent" >"$tmp/parent.rows"
rows . >"$tmp/change.rows"

LC_ALL=C join -a1 -a2 -e 0 -o 0,1.2,2.2 "$tmp/parent.rows" "$tmp/change.rows" |
	awk '{ split($1, k, "|"); d = $2 != $3 ? "  <>" : ""; if (d != "") bad++
		printf "%-8s %-14s %-52s %4d %4d%s\n", k[1], k[2], k[3], $2, $3, d }
		END { printf "%d rows, %d differ\n", NR, bad; exit (bad > 0) }'
