#!/usr/bin/env bash
# Fails if a tracked doc, the Makefile or the verify skill still names
# the retired per-PR bench harness: its BENCH_PR*.json files, its make
# targets, or a `sparkerbench -only <id>` that `sparkerbench -list`
# does not print — or still describes the ring's adaptive chunk-size
# controller, deleted when the chunk plan became static (DESIGN.md §11)
# — or names the lossy wire codecs or the MPI baseline collectives,
# retired when the ring wire became one lossless format (PR 18) — or
# still gives the column view's cost as O(nnz + dim) or names the
# column histogram deleted with it (PR 19: the view is doubly
# compressed, phase B is O(nnz) and the shard cuts are exact).
# CHANGES.md, ROADMAP.md and ISSUE.md record history and are exempt, as
# is benchmark/, which a PR other than its own may not edit.
#
#   scripts/no-stale-refs.sh      (or: make no-stale-refs)
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
files=$(git ls-files '*.md' Makefile .claude/skills/verify/SKILL.md |
	grep -vxE 'CHANGES\.md|ROADMAP\.md|ISSUE\.md' | sort -u |
	while read -r f; do if [ -e "$f" ]; then echo "$f"; fi; done)
own=$(grep -v '^benchmark/' <<<"$files") # benchmark/ is only its own PRs' to edit
ids=" $(go run ./cmd/sparkerbench -list) "
bad=0

if grep -nE 'BENCH_PR|bench-compare|benchjson' $files; then
	bad=1
fi
if grep -niE 'adaptive (chunk[- ]size )?controller|autoChunkBytes|targetChunkNS' $own; then
	echo "the chunk plan is static: a function of the segment's element count and the chunk size (DESIGN.md §11)"
	bad=1
fi
if grep -nE 'WithCompression|Codec(FP16|Int8|TopK)|ParseCodec|ErrorFeedback|compress-disabled|RecursiveHalvingReduceScatter|PairwiseReduceScatter' $own; then
	echo "the ring has one lossless wire and internal/collective no MPI baselines (DESIGN.md §11, EXPERIMENTS.md \"Settled single-layer claims\" row 6)"
	bad=1
fi
if grep -nE 'O\(nnz ?\+ ?dim\)|colHist|csrColBuckets' $own; then
	echo "the column view is doubly compressed: phase B is O(nnz) and shard cuts come from the view's own offsets (DESIGN.md §16)"
	bad=1
fi
while IFS=: read -r file line id; do
	if [[ "$ids" != *" $id "* ]]; then
		echo "$file:$line: sparkerbench -only $id: no such report id"
		bad=1
	fi
done < <(grep -noE 'sparkerbench -only [a-z0-9-]+' $files | sed 's/sparkerbench -only //')

if [ "$bad" -ne 0 ]; then
	echo "no-stale-refs: the references above name the retired bench harness (see EXPERIMENTS.md \"Settled single-layer claims\"), the deleted chunk controller, the retired codecs and MPI baselines, or the dense column view" >&2
	exit 1
fi
