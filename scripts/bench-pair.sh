#!/usr/bin/env bash
# Paired parent-vs-change runs of one benchmark workload — the rule
# benchmark/README.md prescribes for a performance claim: at least ten
# pairs, alternating which side runs first so the host's level cancels;
# the change must win nine pairs in ten and the medians must differ by
# more than the parent's own inter-quartile distance.
#
#   scripts/bench-pair.sh <parent-rev> <workload> [pairs] [seed] [seconds]
#   make bench-pair PARENT=<rev> WORKLOAD=<name> [PAIRS=10] [SEED=2] [RUN_SECONDS=20]
#
# Same-bits mode checks that a change keeps the engine's exact counts:
# one traced seed-1 run a side on each workload of BENCHMARK.json, and
# a diff of the ring steps, wire bytes, loss error and block-manager
# bytes per iteration. It exits non-zero, naming each count that moved,
# on any difference. The counts are per iteration, so a 5-second run
# reads what a 20-second one does (about 90 s in all on a 2-vCPU host).
#
#   scripts/bench-pair.sh --same-bits <parent-rev>
#   make same-bits PARENT=<rev>
#
# The parent is built from a `git worktree` of <parent-rev> in a temp
# directory (removed on exit); set PARENT_DIR to an existing checkout of
# it to skip that. Each run is the driver's form of the benchmark,
# `<binary> -workload W -seed N -seconds S -trace 0` (`-trace 1` and
# seed 1 in same-bits mode), with both binaries built once by `go build
# ./benchmark` from their own trees.
set -euo pipefail

same_bits=
if [ "${1:-}" = --same-bits ]; then
	same_bits=1
	parent=${2:?usage: bench-pair.sh --same-bits <parent-rev>}
	seconds=5
else
	parent=${1:?usage: bench-pair.sh <parent-rev> <workload> [pairs] [seed] [seconds]}
	workload=${2:?usage: bench-pair.sh <parent-rev> <workload> [pairs] [seed] [seconds]}
	pairs=${3:-10}
	seed=${4:-2}
	seconds=${5:-20}
	if [ "$pairs" -lt 10 ]; then
		echo "bench-pair: the paired rule needs at least 10 pairs, got $pairs" >&2
		exit 2
	fi
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
worktree=
cleanup() {
	[ -n "$worktree" ] && git -C "$root" worktree remove --force "$worktree" >/dev/null 2>&1
	rm -rf "$tmp"
}
trap cleanup EXIT

if [ -n "${PARENT_DIR:-}" ]; then
	parent_dir=$PARENT_DIR
else
	worktree=$tmp/parent
	git -C "$root" worktree add --detach "$worktree" "$parent" >/dev/null
	parent_dir=$worktree
fi
(cd "$parent_dir" && go build -o "$tmp/bench-parent" ./benchmark)
(cd "$root" && go build -o "$tmp/bench-change" ./benchmark)

if [ -n "$same_bits" ]; then
	workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
	for w in $workloads; do
		for side in parent change; do
			dir=$root
			[ "$side" = parent ] && dir=$parent_dir
			(cd "$dir" && "$tmp/bench-$side" -workload "$w" -seed 1 -seconds "$seconds" -trace 1 -out "$tmp/out-$side") \
				>"$tmp/run.txt" 2>"$tmp/err.txt" || { cat "$tmp/err.txt" >&2; echo "same-bits: $side run of $w failed" >&2; exit 1; }
			tail -n 1 "$tmp/run.txt" >"$tmp/$side-$w.json"
		done
	done
	python3 - "$tmp" "$parent" $workloads <<'PY'
import json, sys
tmp, parent, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
counts = ["collective.ring_steps_per_iter", "collective.wire_bytes_per_iter", "mllib.loss_rel_err",
          "blockmanager.put_bytes_per_iter", "blockmanager.get_bytes_per_iter"]
moved = 0
print(f"same bits against {parent}, traced seed-1 runs (parent, change):")
for w in workloads:
    p, c = (json.load(open(f"{tmp}/{side}-{w}.json"))["metrics"] for side in ("parent", "change"))
    for k in counts:
        pv, cv = p[k]["value"], c[k]["value"]
        print(f"  {w:<16} {k:<34} {pv!r:>24} {cv!r:>24}  {'same' if pv == cv else 'MOVED'}")
        moved += pv != cv
if moved:
    print(f"same-bits: {moved} count(s) moved", file=sys.stderr)
    sys.exit(1)
PY
	exit
fi

# one <side> <pair>: run one side, append its result line and steal line.
one() {
	local side=$1 dir=$root
	[ "$side" = parent ] && dir=$parent_dir
	(cd "$dir" && "$tmp/bench-$side" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 -out "$tmp/out-$side") \
		>"$tmp/run.txt" 2>"$tmp/err.txt" || { cat "$tmp/err.txt" >&2; echo "bench-pair: $side run $2 failed" >&2; exit 1; }
	tail -n 1 "$tmp/run.txt" >>"$tmp/$side.jsonl"
	sed -n 's/.*the hypervisor took \([0-9.]*\) %.*/\1/p' "$tmp/run.txt" >>"$tmp/$side.steal"
	echo "pair $2 $side: $(tail -n 1 "$tmp/run.txt" | python3 -c 'import json,sys; m=json.load(sys.stdin)["metrics"]; print(" ".join("%s=%.4g" % (k, m[k]["value"]) for k in sorted(m)))')" >&2
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$i"; one change "$i"
	else
		one change "$i"; one parent "$i"
	fi
done

python3 - "$tmp" "$workload" "$parent" "$seed" "$seconds" <<'PY'
import json, statistics, sys
tmp, workload, parent, seed, seconds = sys.argv[1:6]
better = {"setup_s": "lower", "iter_ms_p50": "lower", "samples_per_s": "higher",
          "cpu_ms_per_iter": "lower", "peak_rss_mb": "lower"}
def load(side):
    runs = [json.loads(l) for l in open(f"{tmp}/{side}.jsonl")]
    steal = [float(l) for l in open(f"{tmp}/{side}.steal")]
    return runs, steal
def quart(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]
p, psteal = load("parent")
c, csteal = load("change")
n = len(p)
print(f"\n{workload}  parent={parent}  seed={seed}  seconds={seconds}  pairs={n}  (alternating order)")
print(f"failed operations: parent {sum(r['failed'] for r in p)}/{sum(r['attempted'] for r in p)}, "
      f"change {sum(r['failed'] for r in c)}/{sum(r['attempted'] for r in c)}")
print(f"{'metric':<16} {'parent q1/med/q3':<30} {'change q1/med/q3':<30} {'wins':>6} {'delta':>8}  verdict")
for m, b in better.items():
    pv = [r["metrics"][m]["value"] for r in p]
    cv = [r["metrics"][m]["value"] for r in c]
    sign = 1 if b == "lower" else -1
    wins = sum(1 for a, x in zip(pv, cv) if sign * (a - x) > 0)
    ties = sum(1 for a, x in zip(pv, cv) if a == x)
    pq, cq = quart(pv), quart(cv)
    gain = sign * (pq[1] - cq[1])
    iqr = pq[2] - pq[0]
    if wins * 10 >= 9 * n and gain > iqr:
        verdict = "gain"
    elif (n - wins - ties) * 10 >= 9 * n and -gain > iqr:
        verdict = "LOSS"
    else:
        verdict = "unresolved"
    fmt = lambda q: "/".join("%.4g" % v for v in q)
    print(f"{m:<16} {fmt(pq):<30} {fmt(cq):<30} {wins:>3}/{n:<2} {100 * (cq[1] - pq[1]) / pq[1]:>+7.1f}%  {verdict}")
print(f"host_steal_pct   parent median {statistics.median(psteal):.1f} max {max(psteal):.1f}   "
      f"change median {statistics.median(csteal):.1f} max {max(csteal):.1f}")
PY
