#!/usr/bin/env bash
# Production code is what a binary links: every function and method that a
# non-test Linux file of this module declares must appear in one of the
# module's programs, or be named in the allowlist with its reason.
#
#   scripts/deadcode.sh [ALLOWLIST]
#   make deadcode
#
# Every `main` package that `go list ./...` reports (./benchmark, cmd/*,
# examples/*) is built with inlining off (-gcflags=all=-l), so a function
# that is called survives as a symbol of its own, into a `mktemp -d`
# outside the tree. `go tool nm` lists the code symbols of those binaries
# that belong to the module. A generic instantiation folds back to its
# declaration (`(*Sequencer[go.shape.…]).Reserve` is `Sequencer.Reserve`),
# and closures, method values and defer wrappers fold to the function
# that holds them. The declarations come from the files `go list` names
# for this GOOS (test files and other systems' files excluded), one key
# per `func` line: `<dir>.<Func>` or `<dir>.<Type>.<Method>`, where <dir> is
# the import path less the module's ("internal/wal"), pointer receivers and
# type parameters dropped.
#
# ALLOWLIST (default scripts/deadcode.allow) holds one key per line, then
# its reason; `#` starts a comment. A key ending in `*` covers every key
# it prefixes (a whole test-support package). The script prints each
# declared key no binary links and no line allows, each allowlist line
# that covers nothing linked-out any more, and exits non-zero if there
# is either.
set -euo pipefail

go=${GO:-go}
cd "$(git rev-parse --show-toplevel)"
allow=$(realpath "${1:-scripts/deadcode.allow}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

mapfile -t mains < <($go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
$go build -gcflags=all=-l -o "$tmp/bin/" "${mains[@]}"

# linked: one key per module code symbol, both "<path>.<a>" and
# "<path>.<a>.<b>", since nm does not say whether <a> is a type.
# A program's own symbols say "main.", which becomes its import path.
mod=$($go list -m)
for m in "${mains[@]}"; do
	$go tool nm "$tmp/bin/${m##*/}" | sed "s| main\.| $m.|"
done | awk -v mod="$mod/" '
	($2 == "T" || $2 == "t") {
		s = $0; sub(/^ *[0-9a-f]+ [Tt] /, "", s)
		if (index(s, mod) != 1) next
		while (gsub(/\[[^][]*\]/, "", s)) {}
		gsub(/\(\*?|\)/, "", s); sub(/-fm$/, "", s)
		slash = match(s, /\/[^\/]*$/)
		dot = index(substr(s, slash + 1), ".")
		path = substr(s, 1, slash + dot - 1)
		n = split(substr(s, slash + dot + 1), part, ".")
		print path "." part[1]
		if (n > 1) print path "." part[1] "." part[2]
	}' | sed "s|^$mod/||" | LC_ALL=C sort -u >"$tmp/linked"

# declared: one key per func line of the files go list builds here.
$go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... |
	while read -r path file; do
		awk -v path="$path" '
			/^func / {
				s = substr($0, 6); recv = ""
				if (s ~ /^\(/) {
					recv = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 1)
					sub(/\[.*/, "", recv); n = split(recv, r, /[ *]+/); recv = r[n] "."
				}
				sub(/^ +/, "", s); match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH)
				if (recv == "" && (name == "init" || name == "main" || name == "_")) next
				printf "%s.%s%s\t%s:%d\n", path, recv, name, FILENAME, FNR
			}' "$file"
	done | sed "s|^$mod/||; s|\t$PWD/|\t|" | LC_ALL=C sort -u >"$tmp/declared"

# Keys declared and not linked, then each split by the allowlist.
LC_ALL=C join -t "$(printf '\t')" -v1 "$tmp/declared" "$tmp/linked" >"$tmp/unlinked"
awk -F'\t' '
	FNR == NR {
		line = $0; sub(/#.*/, "", line)
		if (split(line, f, /[ \t]+/) == 0 || f[1] == "") next
		key[++n] = f[1]; used[n] = 0; next
	}
	{
		ok = 0
		for (i = 1; i <= n; i++) {
			k = key[i]
			if (k ~ /\*$/ ? index($1, substr(k, 1, length(k) - 1)) == 1 : $1 == k) { used[i]++; ok = 1 }
		}
		if (ok) allowed++
		else { printf "unlinked: %s  (%s)\n", $1, $2; bad++ }
	}
	END {
		for (i = 1; i <= n; i++) if (!used[i]) { printf "allowed but linked or gone: %s\n", key[i]; bad++ }
		printf "%d binaries, %d functions declared, %d unlinked and allowed, %d problems\n", bins, decl, allowed, bad
		exit bad > 0
	}' bins="${#mains[@]}" decl="$(wc -l <"$tmp/declared")" "$allow" "$tmp/unlinked"
