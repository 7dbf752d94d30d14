#!/bin/sh
# Rewrites tests/golden/digests.txt from the bench binaries of a build tree.
# This script is the only thing that writes the digests; `ctest -L golden`
# only reads them.
#
#   tests/golden/regenerate.sh BUILD_DIR [PARALLEL_CASES [CASE...]]
#
# Every case in cases.txt runs through golden_case.cmake, PARALLEL_CASES at a
# time (default 1; each case already runs its bench with --jobs 4). Naming
# CASEs runs only those and rewrites only their lines; every other case keeps
# the digests it has, so adding a case does not re-accept the rest.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "${1:?usage: regenerate.sh BUILD_DIR [PARALLEL_CASES [CASE...]]}" && pwd)
parallel=${2:-1}
shift $(($# < 2 ? $# : 2))
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Twins (<name>=<case>) check another case's digests and have none of
# their own, so they are not run here.
cases=$(grep -v -e '^#' -e '^[[:space:]]*$' -e '^[^ ]*=' "$here/cases.txt")

selected=$cases
if [ $# -gt 0 ]; then
  selected=
  for name in "$@"; do
    line=$(echo "$cases" | grep "^$name " || true)
    if [ -z "$line" ]; then
      echo "regenerate.sh: no case '$name' in cases.txt (twins have no digests)" >&2
      exit 2
    fi
    selected=$(printf '%s\n%s' "$selected" "$line")
  done
  selected=$(echo "$selected" | grep -v '^$')
fi

# One xargs line per case: name, bench, then the bench's arguments.
echo "$selected" | xargs -P "$parallel" -L 1 sh -c '
  name=$1 bench=$2; shift 2
  cmake -DCASE="$name" -DBENCH="'"$build"'/bench/$bench" -DARGS="$*" \
        -DWORKDIR="'"$tmp"'/$name" -DOUT="'"$tmp"'/$name.digest" \
        -P "'"$here"'/golden_case.cmake" && echo "$name" >&2' sh

# Cases that were not run keep their committed lines, in cases.txt order.
{
  echo "# SHA-256 of each golden case's stdout and output files."
  echo "# Written by tests/golden/regenerate.sh; checked by ctest -L golden."
  echo "$cases" | while read -r name _; do
    if [ -f "$tmp/$name.digest" ]; then
      cat "$tmp/$name.digest"
    else
      grep "^$name " "$here/digests.txt" || true
    fi
  done
} > "$tmp/digests.txt"
mv "$tmp/digests.txt" "$here/digests.txt"
