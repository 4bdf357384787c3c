#!/usr/bin/env bash
# Non-test Rust lines, per crate: each .rs file counts the lines above
# its first `mod tests {` (the whole file if it has none). Files under a
# tests/ or benches/ directory, benchmark/ and vendor/ are not counted,
# nor is a file some counted file declares `#[cfg(test)] mod name;`.
# The `panics` column counts `.unwrap()` and `.expect(` calls in those
# same lines, comment lines (doc examples included) left out: the panic
# audit's number.
#
# Usage: scripts/loc.sh [REV] [PATH...]
#   Without REV, the table for the working tree (tracked and untracked,
#   not ignored). With REV, the table for REV beside it and the
#   difference. PATHs narrow both sides (default: the whole repo).
set -euo pipefail
cd "$(dirname "$0")/.."

rev=
if [[ $# -gt 0 && ! -e $1 ]] && git rev-parse -q --verify "$1^{commit}" >/dev/null; then
    rev=$1
    shift
fi
paths=("$@")

# One "<crate> <lines> <panics>" line per counted file at SRC: the working tree
# when SRC is empty, else that revision. A crate is crates/<name>, or
# the top-level directory for everything else (src, examples).
show() {
    if [[ -z $1 ]]; then cat "$2"; else git show "$1:$2"; fi
}

count() {
    local src=$1 files f skip
    if [[ -z $src ]]; then
        files=$(git ls-files --cached --others --exclude-standard -- "${paths[@]}")
    else
        files=$(git ls-tree -r --name-only "$src" -- "${paths[@]}")
    fi
    files=$({ grep -E '\.rs$' <<<"$files" || true; } |
        { grep -Ev '(^|/)(tests|benches)/|^(benchmark|vendor)/' || true; })
    # The paths a `#[cfg(test)] mod name;` (attribute on its own line or
    # the same one) can load: dir/name.rs and dir/name/mod.rs, where dir
    # is the declaring file's own directory for lib.rs, main.rs and
    # mod.rs, and its stem's directory otherwise.
    skip=$(while read -r f; do
        [[ -n $f ]] || continue
        show "$src" "$f" | awk -v f="$f" '
            BEGIN {
                d = f; sub(/\.rs$/, "", d)
                if (d ~ /(^|\/)(lib|main|mod)$/) sub(/[^\/]*$/, "", d); else d = d "/"
            }
            /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
            t && match($0, /mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) {
                m = substr($0, RSTART + 3, RLENGTH - 4); gsub(/[[:space:]]/, "", m)
                print d m ".rs"; print d m "/mod.rs"
            }
            !/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { t = 0 }'
    done <<<"$files")
    { grep -vxF -f <(printf '%s\n' "$skip") <<<"$files" || true; } |
        while read -r f; do
            [[ -n $f ]] || continue
            show "$src" "$f" |
                awk -v f="$f" '
                    /^[[:space:]]*mod tests \{/ { stop = 1 }
                    !stop { n++ }
                    !stop && !/^[[:space:]]*\/\// { u += gsub(/\.unwrap\(\)|\.expect\(/, "&") }
                    END {
                        c = f
                        if (c ~ /^crates\//) { split(c, p, "/"); c = p[1] "/" p[2] }
                        else sub(/\/.*/, "", c)
                        print c, n + 0, u + 0
                    }'
        done
}

if [[ -z $rev ]]; then
    count "" | awk '
        { s[$1] += $2; t += $2; q[$1] += $3; tq += $3 }
        END {
            printf "%-22s %8s %8s\n", "crate", "lines", "panics"
            for (c in s) printf "%-22s %8d %8d\n", c, s[c], q[c] | "sort"
            close("sort")
            printf "%-22s %8d %8d\n", "total", t, tq
        }'
else
    { count "$rev" | sed 's/^/old /'; count "" | sed 's/^/new /'; } | awk -v rev="$rev" '
        { seen[$2] = 1 }
        $1 == "old" { a[$2] += $3; ta += $3; pa[$2] += $4; tpa += $4 }
        $1 == "new" { b[$2] += $3; tb += $3; pb[$2] += $4; tpb += $4 }
        END {
            r = substr(rev, 1, 8)
            printf "%-22s %26s   %26s\n", "", "----------- lines", "---------- panics"
            printf "%-22s %8s %8s %8s   %8s %8s %8s\n", "crate", r, "now", "diff", r, "now", "diff"
            for (c in seen) printf "%-22s %8d %8d %+8d   %8d %8d %+8d\n", c, a[c], b[c], b[c] - a[c], pa[c], pb[c], pb[c] - pa[c] | "sort"
            close("sort")
            printf "%-22s %8d %8d %+8d   %8d %8d %+8d\n", "total", ta, tb, tb - ta, tpa, tpb, tpb - tpa
        }'
fi
