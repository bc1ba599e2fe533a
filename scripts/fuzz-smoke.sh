#!/usr/bin/env bash
# Runs every Fuzz* target in the repository for a few seconds each: long
# enough to execute the seed corpus and a few thousand mutations, so a
# decoder that panics on the first odd input fails `make check` rather
# than a later fuzzing session. `go test -fuzz` takes one target at a
# time, so the targets are discovered and run one by one. A crasher is
# written to the package's testdata/fuzz/ and fails the run.
#
#   scripts/fuzz-smoke.sh [seconds-per-target]      (or: make fuzz-smoke)
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
secs=${1:-3}
n=0
while IFS=: read -r file target; do
	echo "fuzz-smoke: $target (./$(dirname "$file"), ${secs}s)"
	go test -run '^$' -fuzz "^$target\$" -fuzztime "${secs}s" "./$(dirname "$file")"
	n=$((n + 1))
done < <(grep -rhoH --include='*_test.go' -E '^func Fuzz[A-Za-z0-9_]+' . | sed -E 's|^\./||; s|:func |:|')
if [ "$n" -eq 0 ]; then
	echo "fuzz-smoke: found no Fuzz targets" >&2
	exit 1
fi
echo "fuzz-smoke: $n targets ok"
