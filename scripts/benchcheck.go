// Command benchcheck is the CI bench-regression gate: it checks a fresh
// scripts/bench.sh snapshot against the checked-in baseline and fails when an
// allocation budget was broken or a within-snapshot ratio fell short.
//
//	go run scripts/benchcheck.go BENCH_BASELINE.json BENCH_CI.json
//
// Every gate is exact or a ratio within one snapshot, so none depends on the
// machine the baseline was recorded on (speed is measured by bench/, A/B
// against the parent on one machine):
//   - every benchmark at 0 allocs/op in the baseline must stay at 0 — the
//     zero-allocation contracts of the codec and the forwarding path are
//     machine-independent, so this check is exact; such a benchmark missing
//     from the current snapshot fails (a renamed or deleted benchmark must
//     update the baseline deliberately);
//   - shard scaling: BenchmarkAutoConfigureSharded/replicas=4 must beat
//     replicas=1 by at least -shard-speedup (default 1.5×);
//   - traffic engineering: BenchmarkTEMaxLinkUtilization/mode=te's maxutil
//     metric must be at most -te-ratio (default 0.75) of the mode=sp leg —
//     the optimizer has to shed at least a quarter of the peak link load.
//     Both legs are deterministic model computations, so this ratio is
//     exact.
//
// The table, ns/op beside the baseline's for information, goes to stdout; CI
// uploads it as an artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type entry struct {
	NsOp     float64  `json:"ns_op"`
	AllocsOp *float64 `json:"allocs_op"`
	MaxUtil  *float64 `json:"maxutil"`
}

type snapshot struct {
	Benchmarks map[string]entry `json:"benchmarks"`
}

func load(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return s, fmt.Errorf("%s: no benchmarks", path)
	}
	return s, nil
}

func main() {
	shardSpeedup := flag.Float64("shard-speedup", 1.5, "minimum replicas=1/replicas=4 speedup for the sharded controller")
	teRatio := flag.Float64("te-ratio", 0.75, "maximum TE/shortest-path max-link-utilization ratio (TE must shed at least 1-ratio of the peak)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-shard-speedup 1.5] [-te-ratio 0.75] baseline.json current.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fmt.Printf("%-50s %12s %12s %8s  %s\n", "benchmark", "base ns/op", "now ns/op", "delta", "verdict")
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		zeroAlloc := b.AllocsOp != nil && *b.AllocsOp == 0
		if !ok {
			verdict := "missing (not gated)"
			if zeroAlloc {
				verdict = "MISSING"
				failures = append(failures, fmt.Sprintf("%s: gated benchmark missing from current run", name))
			}
			fmt.Printf("%-50s %12.1f %12s %8s  %s\n", name, b.NsOp, "-", "-", verdict)
			continue
		}
		delta := 0.0
		if b.NsOp > 0 {
			delta = (c.NsOp - b.NsOp) / b.NsOp
		}
		verdict := "informational"
		if zeroAlloc {
			verdict = "0 allocs ok"
			if c.AllocsOp == nil || *c.AllocsOp > 0 {
				got := "?"
				if c.AllocsOp != nil {
					got = fmt.Sprintf("%g", *c.AllocsOp)
				}
				failures = append(failures, fmt.Sprintf("%s: allocs/op budget broken (0 -> %s)", name, got))
				verdict = "ALLOC REGRESSION"
			}
		}
		fmt.Printf("%-50s %12.1f %12.1f %+7.1f%%  %s\n", name, b.NsOp, c.NsOp, delta*100, verdict)
	}
	const shardName = "BenchmarkAutoConfigureSharded/replicas="
	if c1, ok1 := cur.Benchmarks[shardName+"1"]; ok1 {
		c4, ok4 := cur.Benchmarks[shardName+"4"]
		if !ok4 || c4.NsOp <= 0 {
			failures = append(failures, fmt.Sprintf("%s4: missing from current run, cannot gate shard scaling", shardName))
		} else {
			speedup := c1.NsOp / c4.NsOp
			fmt.Printf("\nshard scaling: replicas=1 vs replicas=4 speedup %.2fx (minimum %.2fx)\n",
				speedup, *shardSpeedup)
			if speedup < *shardSpeedup {
				failures = append(failures, fmt.Sprintf(
					"shard scaling: 4 replicas only %.2fx faster than 1 (minimum %.2fx)",
					speedup, *shardSpeedup))
			}
		}
	}

	// Traffic-engineering gate: the optimizer must cut the fat tree's max
	// link utilization to at most -te-ratio of the shortest-path placement.
	// Both legs are deterministic model computations within the current
	// snapshot, so the ratio is machine-independent and exact.
	const teBench = "BenchmarkTEMaxLinkUtilization/mode="
	if sp, ok := cur.Benchmarks[teBench+"sp"]; ok {
		teLeg, okTE := cur.Benchmarks[teBench+"te"]
		switch {
		case !okTE || teLeg.MaxUtil == nil || sp.MaxUtil == nil || *sp.MaxUtil <= 0:
			failures = append(failures, fmt.Sprintf("%ste: maxutil missing from current run, cannot gate TE", teBench))
		default:
			ratio := *teLeg.MaxUtil / *sp.MaxUtil
			fmt.Printf("\nTE max-link-utilization: sp %.3f -> te %.3f, ratio %.3f (maximum %.2f)\n",
				*sp.MaxUtil, *teLeg.MaxUtil, ratio, *teRatio)
			if ratio > *teRatio {
				failures = append(failures, fmt.Sprintf(
					"TE max-link-utilization only %.3fx of shortest-path (maximum %.2fx — TE must shed >=%.0f%%)",
					ratio, *teRatio, (1-*teRatio)*100))
			}
		}
	}

	if len(failures) > 0 {
		fmt.Printf("\nFAIL: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Println("  -", f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchcheck: all gates passed")
}
