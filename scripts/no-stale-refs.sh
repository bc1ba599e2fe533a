#!/usr/bin/env bash
# Fails if a tracked doc, the Makefile or the verify skill still names
# the retired per-PR bench harness: its BENCH_PR*.json files, its make
# targets, or a `sparkerbench -only <id>` that `sparkerbench -list`
# does not print — or still describes the ring's adaptive chunk-size
# controller, deleted when the chunk plan became static (DESIGN.md §11)
# — or names the lossy wire codecs or the MPI baseline collectives,
# retired when the ring wire became one lossless format (PR 18) — or
# still gives a column scatter's cost as O(nnz + dim) or names the
# column histogram — or names the column view, the shard cuts and lane
# scatter over it, or the two-phase kernel path, all deleted when the
# fused single pass became the only CSR kernel (one task runs on one
# core; DESIGN.md §16).
# CHANGES.md, ROADMAP.md and ISSUE.md record history and are exempt, as
# is benchmark/, which a PR other than its own may not edit;
# EXPERIMENTS.md is exempt from the last rule only, because its pprof
# dumps name the deleted functions.
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
	echo "no kernel walks a Dim-sized column table: the fused pass is O(nnz) (DESIGN.md §16)"
	bad=1
fi
if grep -nE 'cscView|colView|colSegments|cscLaneScatter|laneLoad|csrParallelMinRows|two-phase' $(grep -vx 'EXPERIMENTS\.md' <<<"$own"); then
	echo "the fused single pass is the only CSR kernel: no column view, no shard cuts, no within-task workers (DESIGN.md §16)"
	bad=1
fi
while IFS=: read -r file line id; do
	if [[ "$ids" != *" $id "* ]]; then
		echo "$file:$line: sparkerbench -only $id: no such report id"
		bad=1
	fi
done < <(grep -noE 'sparkerbench -only [a-z0-9-]+' $files | sed 's/sparkerbench -only //')

if [ "$bad" -ne 0 ]; then
	echo "no-stale-refs: the references above name the retired bench harness (see EXPERIMENTS.md \"Settled single-layer claims\"), the deleted chunk controller, the retired codecs and MPI baselines, or the deleted column view and kernel sharding" >&2
	exit 1
fi
