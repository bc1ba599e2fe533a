#!/usr/bin/env bash
# Non-test, non-generated Go lines per package — the number ROADMAP item
# 5 asks each deletion PR to report. Physical lines (comments and blanks
# included, so stripping comments is not a reduction), one row per
# directory holding Go files, then the total.
#
#   scripts/loc.sh [dir]      (default: the repository root)
#   make loc
set -euo pipefail

cd "${1:-$(git rev-parse --show-toplevel)}"
find . -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 awk '
		FNR == 1 { d = FILENAME; sub(/^\.\//, "", d); if (!sub(/\/[^\/]*$/, "", d)) d = "." }
		/^\/\/ Code generated .* DO NOT EDIT\.$/ { generated[FILENAME] = 1 }
		{ lines[FILENAME]++; dir[FILENAME] = d }
		END {
			for (f in lines) if (!(f in generated)) { n[dir[f]] += lines[f]; total += lines[f] }
			for (d in n) printf "%7d %s\n", n[d], d
			printf "%7d total\n", total
		}' |
	sort -k2
