#!/usr/bin/env bash
# The mutant catalogue: patches that break the program on purpose and must
# be caught, and widenings that stretch a race window and must be survived.
#
#   scripts/mutants.sh [CATALOGUE]
#   make mutants
#
# CATALOGUE (default scripts/mutants.json) lists one entry per line: name,
# kind ("mutant" or "widening"), patch file (relative to the repository
# root), package, test regexp and a time bound in seconds. The working
# tree (tracked and untracked files, less what .gitignore names) is copied
# into a `mktemp -d` outside it, and each entry gets a fresh copy with its
# patch applied by `git apply`. The package's tests must build; then the
# entry's tests run once, with the bound as their -timeout. A mutant is
# "killed" when they fail (a mutant that hangs fails at the bound), a
# widening "passed" when they pass. A patch that does not apply, a tree
# that does not build, a mutant that survives and a widening that fails
# are each a failure. Prints one table grouped by kind (kind, name,
# applied, verdict, test, seconds) and exits non-zero on any failure.
set -euo pipefail

go=${GO:-go}
cd "$(git rev-parse --show-toplevel)"
catalogue=$(realpath "${1:-scripts/mutants.json}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -cf - | tar -xf - -C "$tmp/base"

# field LINE KEY prints the value of "KEY" in one catalogue line.
field() { sed -nE "s/.*\"$2\": \"?([^\",}]*)\"?.*/\1/p" <<<"$1"; }

rows=$tmp/rows
: >"$rows"
fails=0
while IFS= read -r line; do
	name=$(field "$line" name)
	kind=$(field "$line" kind)
	patch=$(field "$line" patch)
	pkg=$(field "$line" package)
	test=$(field "$line" test)
	bound=$(field "$line" bound_s)
	dir=$tmp/$name
	cp -r "$tmp/base" "$dir"
	applied=yes verdict= secs=-
	if ! (cd "$dir" && git apply "$PWD/$patch") >"$tmp/$name.log" 2>&1; then
		applied=no verdict=FAIL:not-applied
	elif ! (cd "$dir" && $go test -count=1 -run '^$' "$pkg") >>"$tmp/$name.log" 2>&1; then
		verdict=FAIL:no-build
	else
		start=$(date +%s.%N)
		status=0
		(cd "$dir" && timeout $((bound + 30)) $go test -count=1 -timeout "${bound}s" -run "$test" "$pkg") >>"$tmp/$name.log" 2>&1 || status=$?
		secs=$(awk -v s="$start" -v e="$(date +%s.%N)" 'BEGIN { printf "%.1f", e - s }')
		case $kind/$status in
		*/124) verdict=FAIL:overran ;;
		mutant/0) verdict=FAIL:survived ;;
		mutant/*) verdict=killed ;;
		widening/0) verdict=passed ;;
		widening/*) verdict=FAIL:failed ;;
		*) verdict=FAIL:unknown-kind ;;
		esac
	fi
	case $verdict in FAIL*)
		fails=$((fails + 1))
		sed 's/^/    /' "$tmp/$name.log" | tail -n 20 >&2
		;;
	esac
	rm -rf "$dir"
	printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$kind" "$name" "$applied" "$verdict" "$test" "$secs" >>"$rows"
done < <(grep '"name":' "$catalogue")

LC_ALL=C sort -s -t "$(printf '\t')" -k1,1 "$rows" |
	awk -F'\t' 'BEGIN { f = "%-9s %-34s %-7s %-17s %-26s %7s\n"; printf f, "kind", "name", "applied", "verdict", "test", "seconds" }
		{ printf f, $1, $2, $3, $4, $5, $6 }'
echo "$(wc -l <"$rows") entries, $fails failed"
[ "$fails" -eq 0 ]
