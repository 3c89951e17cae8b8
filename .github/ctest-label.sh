#!/bin/sh
# Run the CTest tests labelled $1 (a label regex), passing the remaining
# arguments to ctest. Fails when the label selects no test, so a lost or
# misspelled label cannot turn a CI step green without running anything.
# Run from the build directory.
set -eu
label="$1"
shift
count=$(ctest -N -L "$label" | sed -n 's/^Total Tests: //p')
if [ "${count:-0}" -eq 0 ]; then
  echo "ctest -L '$label' selects no test" >&2
  exit 1
fi
exec ctest -L "$label" "$@"
