#!/usr/bin/env sh
# bench.sh — run the protocol-substrate and dataplane micro benchmarks and
# emit a JSON snapshot (benchmark name -> ns/op, B/op, allocs/op and, for the
# dataplane benchmarks, pkts/s) for scripts/benchcheck.go, which gates its
# allocation budgets and within-snapshot ratios. Speed is measured by bench/
# (scripts/ab.sh), not here.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
#   output.json  defaults to BENCH.json
#   benchtime    defaults to 10000x (pass e.g. 1s for a timed run)
#
# The macro benchmarks (Fig. 3 ring scaling, the pan-European demo) are not
# run here — they take seconds per iteration; run them directly:
#   go test -run='^$' -bench='BenchmarkFig3AutoConfigure|BenchmarkDemoPanEuropeanVideo' -benchtime=3x .
set -eu

out="${1:-BENCH.json}"
benchtime="${2:-10000x}"
cd "$(dirname "$0")/.."

raw="$(go test -run='^$' \
	-bench='BenchmarkOpenFlow|BenchmarkMatch|BenchmarkRIB|BenchmarkLLDP|BenchmarkSwitchForward|BenchmarkBGP' \
	-benchmem -benchtime="$benchtime" . ./internal/ofswitch/ ./internal/bgp/)"

# Shard-scaling series (distributed RF-controller, 1/2/4 replicas): a macro
# benchmark at seconds per iteration, so it runs at a fixed small iteration
# count instead of $benchtime. benchcheck gates the replicas=1/replicas=4
# ratio, which is machine-independent.
raw="$raw
$(go test -run='^$' -bench='BenchmarkAutoConfigureSharded' -benchmem -benchtime=2x .)"

# Traffic-engineering headline: max link utilization on a skewed fat-tree
# demand, shortest-path vs the TE optimizer. The "maxutil" metric is a
# deterministic model computation, so a fixed tiny iteration count is
# enough; benchcheck gates the within-snapshot te/sp ratio.
raw="$raw
$(go test -run='^$' -bench='BenchmarkTEMaxLinkUtilization' -benchmem -benchtime=3x .)"

printf '%s\n' "$raw" >&2

printf '%s\n' "$raw" | awk '
BEGIN { n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
	ns = ""; bytes = ""; allocs = ""; pkts = ""; maxutil = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns = $(i-1)
		if ($i == "B/op")      bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
		if ($i == "pkts/s")    pkts = $(i-1)
		if ($i == "maxutil")   maxutil = $(i-1)
	}
	if (ns != "") {
		if (n++) printf ",\n"
		printf "    \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s, \"pkts_s\": %s, \"maxutil\": %s}", \
			name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs), \
			(pkts == "" ? "null" : pkts), (maxutil == "" ? "null" : maxutil)
	}
}
END { if (n == 0) exit 1 }
' > /tmp/bench_body.$$

{
	printf '{\n  "benchmarks": {\n'
	cat /tmp/bench_body.$$
	printf '\n  }\n}\n'
} > "$out"
rm -f /tmp/bench_body.$$

echo "wrote $out" >&2
