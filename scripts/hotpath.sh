#!/usr/bin/env bash
# Static comparison of the word engines' code against a revision, from the
# compiler's own output.
#
#   scripts/hotpath.sh REV
#   make hotpath REV=HEAD~1
#
# REV is exported with `git archive` into a `mktemp -d` outside the working
# tree. On both sides internal/swisstm, internal/tl2, internal/tinystm and
# the kernel they share, internal/stm/kernel (its block is "kernel"), are
# built with -gcflags=<pkg>=-S, and for every function each package compiles
# (the methods of txn and roTx, their helpers, the Engine's methods and the
# compiler's own wrappers), the script prints one row per CALL target
# (runtime bounds-check panics included) with its count, and one "atomics"
# row: the LOCK-prefixed instructions plus the XCHGs with a memory operand.
# On amd64 every sync/atomic store is such an XCHG and every Add or
# CompareAndSwap a LOCK-prefixed instruction, so the row counts the
# function's fences; XCHGL AX, AX, the compiler's inline-mark no-op, is not
# counted. A call that stops being inlined, a bounds check that appears or
# goes, or an atomic operation added or removed shows up as a row whose two
# counts differ. A plain load is no fence and an XCHG is either a Store or a
# Swap, so the function also gets one "atomic:KIND" row per sync/atomic
# method it inlines (Load, Store, Swap, CompareAndSwap, Add, And/Or): the
# compiler positions an inlined method's memory instruction at the
# method's line in $GOROOT/src/sync/atomic/type.go, and the row counts the
# instructions there with a memory operand (address arithmetic, nil checks
# and stack slots aside). A removed Load, or a Store that became a Swap,
# moves these rows though "atomics" holds. Each engine's block ends with
# three rows over all its functions: "total atomics" and "total calls" — a
# body that moves from one function to another changes the rows of both,
# and the totals say whether anything was added or lost on the way — and
# "total atomic sites", the
# distinct source positions of those instructions. An atomic inlined from
# the Go tree (sync/atomic) carries the Go tree's position, so its site is
# the position of the nearest instruction before it that is outside the Go
# tree: the line of this tree that made the call. An abort path inlined
# into several functions then counts once, and the row moves only when a
# fence is added to or removed from the source. A last block, "all",
# counts the distinct sites of the four packages together: a fence that
# moves from an engine into a kernel function the engine inlines is one
# site there, though both the engine's block and the kernel's count it.
# Rows print as "engine
# function item parent change", a differing row marked "<>"; the exit
# status is non-zero when any row differs. It needs amd64 for the
# instruction names.
set -euo pipefail

rev=${1:?usage: hotpath.sh REV}
go=${GO:-go}

cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

# rows DIR SITES prints the sorted "engine|function|item count" rows of the
# tree in DIR, then the "all" row: the distinct atomic sites of the four
# packages together, each package's sites collected in the file SITES. A
# function's name drops its package path and its spaces (a generic
# instance's shape type has them).
rows() {
	(
		cd "$1"
		for dir in swisstm tl2 tinystm stm/kernel; do
			eng=${dir##*/}
			pkg=$($go list "./internal/$dir")
			$go build -gcflags="$pkg=-S" "./internal/$dir" 2>&1 |
				awk -F'\t' -v eng="$eng" -v pkg="$pkg." -v goroot="$($go env GOROOT)/" -v sitesf="$2" '
					BEGIN {
						# kind[line]: the sync/atomic method whose body holds type.go line.
						typego = goroot "src/sync/atomic/type.go"
						while ((getline l <typego) > 0) {
							ln++
							if (l ~ /^func \(/) { m = l; sub(/^func \([^)]*\) /, "", m); sub(/\(.*/, "", m); if (m ~ /^(And|Or)$/) m = "And/Or" }
							kind[ln] = m
							if (l ~ /}$/) m = ""
						}
						typego = typego ":"
					}
					/^[^\t]/ {
						fn = last = ""
						if (!/ STEXT /) next
						fn = $0; sub(/ STEXT .*/, "", fn); gsub(/ /, "", fn)
						while ((p = index(fn, pkg)) > 0) fn = substr(fn, 1, p - 1) substr(fn, p + length(pkg))
						n[eng "|" fn "|atomics"] += 0
						next
					}
					fn == "" || NF < 3 { next }
					{ pos = $2; sub(/^[^(]*\(/, "", pos); sub(/\)$/, "", pos) }
					$3 == "CALL" { t = $4; sub(/\(SB\)$/, "", t); n[eng "|" fn "|call:" t]++ }
					index(pos, typego) == 1 && $3 !~ /^(LEAQ|TESTB|NOP|PCDATA|FUNCDATA|CALL|LOCK)$/ && $4 ~ /\(/ && $4 !~ /\((SP|SB)\)/ {
						k = kind[substr(pos, length(typego) + 1)]
						if (k != "") n[eng "|" fn "|atomic:" k]++
					}
					$3 == "LOCK" || ($3 ~ /^XCHG/ && $4 ~ /\(/) {
						n[eng "|" fn "|atomics"]++
						sites[index(pos, goroot) == 1 ? last : pos]
					}
					index(pos, goroot) != 1 && pos !~ /^</ { last = pos }
					END {
						for (k in n) print k, n[k]
						m = 0; for (s in sites) { m++; print s >>sitesf }
						print eng "|~total|sites", m
					}'
		done
		echo "all|~total|sites $(sort -u "$2" | wc -l)"
	) | LC_ALL=C sort
}

rows "$tmp/parent" "$tmp/parent.sites" >"$tmp/parent.rows"
rows . "$tmp/change.sites" >"$tmp/change.rows"

LC_ALL=C join -a1 -a2 -e 0 -o 0,1.2,2.2 "$tmp/parent.rows" "$tmp/change.rows" |
	awk 'function row(e, f, i, p, c) {
			d = p != c ? "  <>" : ""; if (d != "") bad++
			printf "%-8s %-28s %-48s %5d %5d%s\n", e, f, i, p, c, d; rows++
		}
		function totals() {
			if (eng == "") return
			if (eng == "all") { row(eng, "total", "atomic sites", sp, sc); return }
			row(eng, "total", "atomics", ap, ac); row(eng, "total", "atomic sites", sp, sc)
			row(eng, "total", "calls", cp, cc)
			ap = ac = cp = cc = 0
		}
		{ split($1, k, "|") }
		k[1] != eng { totals(); eng = k[1] }
		k[2] == "~total" { sp = $2; sc = $3; next }
		{ row(k[1], k[2], k[3], $2, $3) }
		k[3] == "atomics" { ap += $2; ac += $3 }
		k[3] ~ /^call:/ { cp += $2; cc += $3 }
		END { totals(); printf "%d rows, %d differ\n", rows, bad; exit (bad > 0) }'
