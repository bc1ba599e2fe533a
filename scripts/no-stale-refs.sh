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
# core; DESIGN.md §16) — or names the job server, its binary, demo and
# auth variable, or the scheduler tenancy API, all deleted when the
# serving plane was retired (DESIGN.md §14) — or names the rdd surface
# no training path ran (the hash shuffle, join, Distinct,
# MapPartitionsWithContext, per-RDD placement), linear regression's
# trainer, or the examples deleted with them (wordcount, logreg, lda,
# strategies, allreduce; `cmd/sparker-train` covers the last four) — or
# names rdd's tree aggregation and its hook set, deleted when core took
# the tree over, or the ring's take path (the clearing encoders),
# deleted with it — or names f64Wire or the f64-only AggFuncs fields
# (Recycle, Support, Fold, Finish), deleted when the f64 plane got its
# own entry (core.AggregateF64 and F64Funcs) — or names the ring's
# support plumbing (WithSupport, supportFor, loadSupport, storeSupport,
# markSupport, supportPool), deleted when every []float64 segment
# became a serde.Body whose Bits are its candidates.
# CHANGES.md, ROADMAP.md and ISSUE.md record history and are exempt, as
# is benchmark/, which a PR other than its own may not edit;
# EXPERIMENTS.md is exempt from the column-view, tree, f64-plane and
# ring-support rules only, because its pprof dumps and records name the
# deleted functions.
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
if grep -nE 'sparker-serve|serve-demo|internal/server|WithTenant|ConfigureTenant|SPARKER_AUTH_TOKEN' $own; then
	echo "the serving plane is retired: no job server, no tenants, one FIFO scheduler (DESIGN.md §14)"
	bad=1
fi
if grep -nE 'ReduceByKey|CountByKey|KeyBy|rdd\.Join|Distinct|MapPartitionsWithContext|TrainLinearRegression|WithPlacement|examples/(wordcount|logreg|lda|strategies|allreduce)' $own; then
	echo "the rdd engine keeps only the surface training runs (DESIGN.md §1): no shuffle, join or Distinct, no per-RDD placement knob, no linear-regression trainer; run training through cmd/sparker-train"
	bad=1
fi
if grep -nE 'rdd\.TreeAggregate|TreeHooks|rdd\.AggregateOptions|treeHooks|TakeChunkTo|TakePackedF64|ClearChunk' $(grep -vx 'EXPERIMENTS\.md' <<<"$own"); then
	echo "core owns the tree (DESIGN.md §18): rdd has no TreeAggregate, AggregateOptions or TreeHooks; and the ring's take path is gone (no TakeChunkTo, ClearChunk or TakePackedF64)"
	bad=1
fi
if grep -nE 'f64Wire|AggFuncs\.(Recycle|Support|Fold|Finish)' $(grep -vx 'EXPERIMENTS\.md' <<<"$own"); then
	echo "the f64 plane has its own entry (DESIGN.md §18): core.AggregateF64 takes F64Funcs, AggFuncs has no Recycle, Support, Fold or Finish, and there is no f64Wire"
	bad=1
fi
if grep -nE 'WithSupport|supportFor|loadSupport|storeSupport|markSupport|supportPool' $(grep -vx 'EXPERIMENTS\.md' <<<"$own"); then
	echo "the ring carries no support (DESIGN.md §11 and §18): every []float64 segment is a serde.Body, and a dense body's Bits are its candidates"
	bad=1
fi
while IFS=: read -r file line id; do
	if [[ "$ids" != *" $id "* ]]; then
		echo "$file:$line: sparkerbench -only $id: no such report id"
		bad=1
	fi
done < <(grep -noE 'sparkerbench -only [a-z0-9-]+' $files | sed 's/sparkerbench -only //')

if [ "$bad" -ne 0 ]; then
	echo "no-stale-refs: the references above name the retired bench harness (see EXPERIMENTS.md \"Settled single-layer claims\"), the deleted chunk controller, the retired codecs and MPI baselines, the deleted column view and kernel sharding, the retired serving plane, the deleted rdd surface and examples, rdd's deleted tree and the ring's take path, the f64 plane's deleted AggFuncs hooks, or the ring's deleted support plumbing" >&2
	exit 1
fi
