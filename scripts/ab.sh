#!/usr/bin/env bash
# ab.sh — A/B the working tree against its merge-base with main on one
# workload of the repo benchmark (bench/ + BENCHMARK.json), the way a PR that
# claims a gain has to: alternating pairs on one machine, medians, quartiles
# and the win count per end-to-end metric.
#
# Usage: scripts/ab.sh <workload> [pairs=10] [seed=1] [parent-tree]
#   workload     a name from BENCHMARK.json (fwd-1500B, churn-4k, ...)
#   parent-tree  a checkout of the parent to use as it is; without it the
#                merge-base is checked out into the git worktree .ab_parent/
#
# Each run is `bench/run.sh --workload W --seed S --seconds 16 --trace 0` in
# its own tree, so each side builds its own bench/ against its own source.
# The runs' JSON and reports stay in .bench_build/ab/<workload>-seed<seed>/.
set -euo pipefail

workload="${1:?usage: scripts/ab.sh <workload> [pairs=10] [seed=1] [parent-tree]}"
pairs="${2:-10}"
seed="${3:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="${4:-}"

if [ -z "$parent" ]; then
	base="$(git -C "$root" merge-base HEAD main)"
	parent="$root/.ab_parent"
	if [ -d "$parent" ]; then
		git -C "$parent" checkout -q --detach "$base"
	else
		git -C "$root" worktree add -q --detach "$parent" "$base"
	fi
fi
parent="$(cd "$parent" && pwd)"

out="$root/.bench_build/ab/$workload-seed$seed"
rm -rf "$out"
mkdir -p "$out"

run() { # side tree pair
	if ! bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 16 --trace 0 \
		>"$out/$1.$3.json" 2>"$out/$1.$3.err"; then
		echo "ab.sh: $1 run of pair $3 failed:" >&2
		tail -n 20 "$out/$1.$3.err" >&2
		exit 1
	fi
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$parent" "$i"
	fi
	echo "pair $i/$pairs done" >&2
done

# Where the linker put the hot symbols: the classifier (classify, Covers),
# the cache-hit path (handleBatch, lookupN, the key extractor), the
# switch's flow-mod apply (handleFlowMod, the table's add), the
# flow-mod decode every install goes through twice, in FlowVisor and in the
# switch (Decode, FlowMod's decodeBody, the action walk), and the
# control-channel send every message takes at each of its hops (Conn's Send,
# TrySend and SendFrame, the queue's reserve and queued around each encode,
# and the writer loop), FlowVisor's relay of each flow-mod, and the cable
# every frame crosses (Endpoint's enqueue, SendBurst and deliverLoop).
# Moving one of them between 0 and 32
# mod 64 alone has read as a ±10 % change in churn-4k's CPU per packet, so a side-to-side
# difference here is a confound to rule out first. A symbol only one side has is listed, not compared.
hot='ofswitch\.\(\*Switch\)\.(handleBatch|handleFlowMod)$|ofswitch\.\(\*flowTable\)\.(lookupN|classify|add)$|openflow\.ExtractKey(Into)?$|openflow\.\(\*Match\)\.Covers$'
hot+='|openflow\.\(\*Decoder\)\.[Dd]ecode$|openflow\.\(\*FlowMod\)\.decodeBody$|openflow\.(\(\*store\)\.)?decode(One)?Actions?$'
hot+='|openflow\.\(\*Conn\)\.(Send|TrySend|SendFrame|reserve|queued|writeLoop)$|flowvisor\.\(\*session\)\.relay$'
hot+='|netemu\.\(\*Endpoint\)\.(enqueue|SendBurst|deliverLoop)$'
placement() { # tree: one "symbol offset" line per hot symbol
	go tool nm -sort name "$1/.bench_build/rfbench" | grep -E "$hot" |
		while read -r addr _ sym; do echo "${sym##*/} $((16#$addr % 64))"; done || true
}
parent_place="$(placement "$parent")"
change_place="$(placement "$root")"
echo "hot-symbol offsets mod 64 (go tool nm .bench_build/rfbench)"
echo "  parent: $(echo $parent_place)"
echo "  change: $(echo $change_place)"
moved="$(join <(echo "$parent_place" | sort) <(echo "$change_place" | sort) | awk '$2 != $3 {printf "%s %s->%s  ", $1, $2, $3}')"
if [ -n "$moved" ]; then
	echo "  WARNING: hot symbols sit at other offsets on the two sides ($moved); a CPU-per-packet difference may be code placement, not the change"
fi

python3 - "$root/BENCHMARK.json" "$out" "$pairs" "$workload" "$seed" <<'EOF'
import json, sys

spec, out, pairs, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

runs = {side: [json.load(open(f"{out}/{side}.{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}
print(f"{workload}, seed {seed}, {pairs} alternating pairs, 16 s each (q1 / median / q3)")
for side, rs in runs.items():
    bad = [i + 1 for i, r in enumerate(rs) if not r["correct"] or r["failed"]]
    if bad:
        print(f"  {side}: runs {bad} incorrect or with failed operations")
for m in json.load(open(spec))["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    losses = sum((b < a) if higher else (b > a) for a, b in zip(p, c))
    pm, cm = quantile(p, .5), quantile(c, .5)
    iqr = quantile(p, .75) - quantile(p, .25)
    print(f"{name} ({m['unit']}, {m['better']} is better)")
    for side, xs in (("parent", p), ("change", c)):
        print(f"  {side}: {quantile(xs, .25):.6g} / {quantile(xs, .5):.6g} / {quantile(xs, .75):.6g}"
              f"   runs: {' '.join(f'{x:.6g}' for x in xs)}")
    print(f"  change wins {wins}/{pairs}, loses {losses}; median {(cm / pm - 1) * 100:+.1f} % of parent's;"
          f" gap {abs(cm - pm):.6g} against parent's quartile spread {iqr:.6g}")
EOF
