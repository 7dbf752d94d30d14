#!/bin/sh
# Rewrites tests/golden/digests.txt from the bench binaries of a build tree.
# This script is the only thing that writes the digests; `ctest -L golden`
# only reads them.
#
#   tests/golden/regenerate.sh BUILD_DIR [PARALLEL_CASES]
#
# Every case in cases.txt runs through golden_case.cmake, PARALLEL_CASES at a
# time (default 1; each case already runs its bench with --jobs 4).
set -eu

here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "${1:?usage: regenerate.sh BUILD_DIR [PARALLEL_CASES]}" && pwd)
parallel=${2:-1}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Twins (<name>=<case>) check another case's digests and have none of
# their own, so they are not run here.
cases=$(grep -v -e '^#' -e '^[[:space:]]*$' -e '^[^ ]*=' "$here/cases.txt")

# One xargs line per case: name, bench, then the bench's arguments.
echo "$cases" | xargs -P "$parallel" -L 1 sh -c '
  name=$1 bench=$2; shift 2
  cmake -DCASE="$name" -DBENCH="'"$build"'/bench/$bench" -DARGS="$*" \
        -DWORKDIR="'"$tmp"'/$name" -DOUT="'"$tmp"'/$name.digest" \
        -P "'"$here"'/golden_case.cmake" && echo "$name" >&2' sh

{
  echo "# SHA-256 of each golden case's stdout and output files."
  echo "# Written by tests/golden/regenerate.sh; checked by ctest -L golden."
  echo "$cases" | while read -r name _; do cat "$tmp/$name.digest"; done
} > "$here/digests.txt"
