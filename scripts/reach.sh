#!/bin/sh
# Reachability pass: every function this module declares must be linked into
# some binary it ships, or be named in scripts/reach.keep with a reason.
#
#   make reach
#
# Builds every main package of the module (cmd/, examples/, scripts/) and
# bench/permbench with inlining off (-gcflags=all=-l, so a function the
# compiler would inline still shows up as a symbol) into a temporary
# directory, removed on exit, and reads their text symbols with go tool nm.
# The declared functions are the top-level funcs and methods of each
# package's host-build GoFiles (so a body behind another GOOS/GOARCH's build
# constraint is not counted), outside the facade package (its exported names
# are the API, whatever the binaries call) and the test-support packages
# internal/indextest and internal/faultfs. Names are compared as
# <package>.<func> or <package>.<type>.<method>, the package path without the
# module's "repro/" prefix; a main package's functions count only when its own
# binary links them.
#
# Fails, listing each name, on a declared function no binary links that
# reach.keep does not name, and on a reach.keep entry that a binary links or
# that is no longer declared.
set -eu

GO=${GO:-go}
export LC_ALL=C # one collation for sort and comm
ROOT=$(cd "$(dirname "$0")/.." && pwd)
KEEP="$ROOT/scripts/reach.keep"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM
cd "$ROOT"

mkdir "$TMP/bin"
mains=$("$GO" list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
# shellcheck disable=SC2086
"$GO" build -gcflags=all=-l -o "$TMP/bin/" $mains
"$GO" build -C bench -gcflags=all=-l -o "$TMP/bin/" ./permbench

# Linked: one normalised name per text symbol. A main package's symbols are
# renamed from main.* to its import path (bench/permbench for permbench).
for pkg in $mains repro/bench/permbench; do
    "$GO" tool nm "$TMP/bin/${pkg##*/}" | awk -v main="$pkg" '
    match($0, /^ *[0-9a-f]+ [Tt] /) {
        s = substr($0, RLENGTH + 1)
        # Drop type arguments: every [...] group, nested brackets included.
        out = ""; depth = 0
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "[") depth++
            else if (c == "]") depth--
            else if (depth == 0) out = out c
        }
        s = out
        sub(/\.abi0$/, "", s)
        sub(/-fm$/, "", s)
        sub(/-range[0-9].*$/, "", s)
        sub(/\.(func|gowrap|deferwrap)[0-9].*$/, "", s)
        if (s ~ /^main\./) s = main substr(s, 5)
        sub(/^repro\//, "", s)
        gsub(/\(\*?|\)/, "", s)
        print s
    }'
done | sort -u >"$TMP/linked"

# Declared: every top-level func and method line of each package's GoFiles,
# as <package>.<func> or <package>.<receiver type>.<method>.
"$GO" list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... |
    awk '$1 != "repro" && $1 != "repro/internal/indextest" && $1 != "repro/internal/faultfs"' |
    while read -r pkg dir files; do
        for f in $files; do
            awk -v pkg="${pkg#repro/}" '
            /^func / {
                s = substr($0, 6)
                recv = ""
                if (s ~ /^\(/) {
                    recv = substr(s, 2, index(s, ")") - 2)
                    s = substr(s, index(s, ")") + 1)
                    sub(/^ +/, "", s)
                    sub(/\[.*$/, "", recv)
                    n = split(recv, w, " ")
                    recv = w[n]
                    sub(/^\*/, "", recv)
                    recv = recv "."
                }
                match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
                name = substr(s, 1, RLENGTH)
                if (name != "init" && name != "_") print pkg "." recv name
            }' "$dir/$f"
        done
    done | sort -u >"$TMP/declared"

sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$KEEP" | awk '{ print $1 }' | sort >"$TMP/keep"

comm -23 "$TMP/declared" "$TMP/linked" >"$TMP/unlinked"
comm -23 "$TMP/unlinked" "$TMP/keep" >"$TMP/new"
comm -13 "$TMP/unlinked" "$TMP/keep" >"$TMP/stale"

status=0
if [ -s "$TMP/new" ]; then
    echo "reach: declared functions no binary links (delete them, or name each in scripts/reach.keep with a reason):"
    sed 's/^/  /' "$TMP/new"
    status=1
fi
if [ -s "$TMP/stale" ]; then
    echo "reach: scripts/reach.keep entries that a binary links or that are no longer declared (remove them):"
    sed 's/^/  /' "$TMP/stale"
    status=1
fi
[ "$status" -eq 0 ] && echo "reach: $(wc -l <"$TMP/declared") declared functions, $(wc -l <"$TMP/keep") kept unlinked, none unexplained"
exit "$status"
