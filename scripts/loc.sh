#!/usr/bin/env sh
# Non-test Go lines per package (directory), counted like
# `cat *.go | wc -l` over every .go file that is not a _test.go file,
# and beside them the lines of every assembly (.s) file as one
# separate total, which the Go total leaves out. Without an argument it
# prints the work tree's counts (tracked and untracked files, minus
# ignored ones); with a git revision it prints the revision's count,
# the work tree's count and the delta for every package that has Go
# files on either side, and for the assembly total, so the line deltas
# recorded in CHANGES.md can be reproduced.
#
# Usage: scripts/loc.sh [rev]
set -eu

cd "$(dirname "$0")/.."

# Each counter prints "<package> <lines>", one line per Go or assembly
# file; assembly files count under the package "assembly".
worktree() {
    git ls-files -co --exclude-standard -- '*.go' '*.s' | grep -v '_test\.go$' |
        while IFS= read -r f; do
            [ -f "$f" ] && printf '%s %s\n' "$(pkg "$f")" "$(wc -l < "$f")"
        done
}

atrev() {
    git ls-tree -r --name-only "$1" -- | grep -E '\.(go|s)$' | grep -v '_test\.go$' |
        while IFS= read -r f; do
            printf '%s %s\n' "$(pkg "$f")" "$(git cat-file -p "$1:$f" | wc -l)"
        done
}

pkg() {
    case $1 in
    *.s) echo assembly ;;
    *) dirname "$1" ;;
    esac
}

if [ $# -eq 0 ]; then
    worktree | awk '
        $1 == "assembly" { asm += $2; next }
        { n[$1] += $2; total += $2 }
        END {
            for (p in n) printf "%-32s %7d\n", p, n[p] | "sort"
            close("sort")
            printf "%-32s %7d\n", "total", total
            printf "%-32s %7d\n", "assembly", asm
        }'
    exit 0
fi

rev=$1
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
    echo "loc.sh: unknown revision $rev" >&2
    exit 2
}
{
    atrev "$rev" | sed 's/^/old /'
    worktree | sed 's/^/new /'
} | awk -v rev="$rev" '
    { seen[$2] = 1; if ($1 == "old") o[$2] += $3; else w[$2] += $3 }
    END {
        printf "%-32s %9s %9s %7s\n", "package", substr(rev, 1, 9), "worktree", "delta"
        for (p in seen) {
            if (p == "assembly") continue
            d = w[p] - o[p]
            printf "%-32s %9d %9d %+7d\n", p, o[p], w[p], d | "sort"
            to += o[p]; tw += w[p]
        }
        close("sort")
        printf "%-32s %9d %9d %+7d\n", "total", to, tw, tw - to
        a = "assembly"
        printf "%-32s %9d %9d %+7d\n", a, o[a], w[a], w[a] - o[a]
    }'
