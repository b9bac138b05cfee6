#!/usr/bin/env bash
# identity.sh — the byte-identity comparisons against a base revision, as
# one command (`make identity BASE=<rev>`).
#
# Usage: scripts/identity.sh [BASE]     BASE defaults to main.
#
# Builds cmd/experiments, cmd/paperrepro and cmd/srlsim twice: at BASE,
# exported with `git archive` into a temporary directory, and from the
# working tree.
# Each side then produces, from its own source tree:
#
#   quick-json       experiments -quick -uops 8000 -warmup 1000 -json
#   quick-timeline   that run's -timeline CSV
#   quick-text       the text tables of the quick run (its flags, no -json)
#   quick-csv        the quick run's flags with -csv instead of -json
#   default-json     experiments -json (default scale)
#   table1, table2, power
#                    the text of experiments -only <name>
#   srlsim-v         the text of srlsim -design srl -suite SFP2K
#                    -uops 8000 -warmup 1000 -v (its -v block prints
#                    every counter Results.ExtraNames lists)
#   paper-csv, paper-analysis
#                    the csv/ and analysis/ trees of
#                    paperrepro -profile quick -check
#   skip-lines       the "cycles in" lines of
#                    go test ./internal/core -run TestSkipActuallySkips -v
#
# It names each comparison that differs and exits 1 if any does. It writes
# only under one temporary directory (in TMPDIR), removed on exit.
#
# This is a tool, not a CI gate: a change meant to move results differs on
# purpose, and says so.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:-main}
rev=$(git rev-parse --verify "$BASE^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/srlproc-identity.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base-src"
git archive "$rev" | tar -x -C "$tmp/base-src"

# produce SIDE SRC writes SIDE's outputs under $tmp/SIDE, building and
# running from the source tree SRC.
produce() {
    local side=$1 src=$2 out="$tmp/$1"
    mkdir -p "$out/bin"
    echo "== identity: $side: build"
    (cd "$src" && go build -o "$out/bin/" ./cmd/experiments ./cmd/paperrepro ./cmd/srlsim)
    local ex="$out/bin/experiments"
    echo "== identity: $side: experiments -quick"
    "$ex" -quick -uops 8000 -warmup 1000 -json -timeline "$out/quick-timeline" >"$out/quick-json"
    "$ex" -quick -uops 8000 -warmup 1000 >"$out/quick-text"
    "$ex" -quick -uops 8000 -warmup 1000 -csv >"$out/quick-csv"
    echo "== identity: $side: experiments (default scale)"
    "$ex" -json >"$out/default-json"
    for t in table1 table2 power; do
        "$ex" -only "$t" >"$out/$t"
    done
    "$out/bin/srlsim" -design srl -suite SFP2K -uops 8000 -warmup 1000 -v >"$out/srlsim-v"
    echo "== identity: $side: paperrepro -profile quick -check"
    # A failed check still writes the trees, which are what is compared.
    if ! (cd "$src" && "$out/bin/paperrepro" -profile quick -check \
        -out "$out/paper" -stamp identity >"$out/paper.log" 2>&1); then
        echo "identity: $side: paperrepro -check failed; its log ends:" >&2
        tail -n 5 "$out/paper.log" >&2
    fi
    echo "== identity: $side: TestSkipActuallySkips"
    # Drop the file:line prefix, which moves with edits to the test file. A
    # failing test still prints its lines, which are what is compared.
    (cd "$src" && go test ./internal/core -run TestSkipActuallySkips -v -count=1) |
        grep 'cycles in' | sed 's/^ *[a-z_]*\.go:[0-9]*: //' >"$out/skip-lines" || true
}

produce base "$tmp/base-src"
produce work "$PWD"

echo "== identity: comparing against $BASE ($rev)"
files=(quick-json quick-timeline quick-text quick-csv default-json table1 table2 power srlsim-v skip-lines)
trees=(csv analysis)
differ=()
for f in "${files[@]}"; do
    cmp -s "$tmp/base/$f" "$tmp/work/$f" || differ+=("$f")
done
for d in "${trees[@]}"; do
    diff -r -q "$tmp/base/paper/identity/$d" "$tmp/work/paper/identity/$d" >/dev/null 2>&1 ||
        differ+=("paper-$d")
done

if [ ${#differ[@]} -gt 0 ]; then
    echo "identity: differs from $BASE: ${differ[*]}" >&2
    exit 1
fi
echo "identity: all $((${#files[@]} + ${#trees[@]})) comparisons byte-identical to $BASE"
