#!/usr/bin/env bash
# Net line count of src/ since a base revision, the figure each change
# reports in CHANGES.md:
#
#   tools/src_lines.sh [BASE]     # BASE defaults to HEAD~1
#
# Prints "+added −removed = net" from `git diff --numstat BASE -- src/`,
# i.e. the working tree against BASE. Files git does not track yet are not
# counted: stage them (git add) first. Binary files are skipped.
set -euo pipefail

base="${1:-HEAD~1}"
cd "$(git rev-parse --show-toplevel)"
git diff --numstat "$base" -- src/ | awk '
  $1 != "-" { added += $1; removed += $2 }
  END {
    minus = "\342\210\222"  # U+2212, the typographic minus
    net = added - removed
    printf "+%d %s%d = %s%d\n", added, minus, removed,
           (net < 0 ? minus : "+"), (net < 0 ? -net : net)
  }'
