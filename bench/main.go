// Command bench is the repository's benchmark: five named workloads that
// drive the system through its public constructors over in-process netemu
// cables, report end-to-end and per-layer metrics by name as JSON, verify
// what the system delivered, and exit non-zero when a check fails.
//
//	bash bench/run.sh                                   # all five workloads
//	bash bench/run.sh -workload fwd-64B -seed 7         # one workload
//	bash bench/run.sh -trace                            # traced set: per-layer metrics, bench/out/trace-*.json
//	bash bench/run.sh -repeat 2 -check                  # two sets, compared against the bounds
//	bash bench/run.sh --workload fwd-64B --seed 7 --seconds 16 --trace 0   # the form BENCHMARK.json's driver uses
//
// README.md describes the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// run is one execution of one workload: its inputs and everything it
// measured.
type run struct {
	workload string
	seed     int64
	seconds  float64
	rec      *recorder // nil on untraced runs

	attempted, failed uint64
	problems          []string           // failed output checks
	e2e               map[string]float64 // endToEnd and headline metrics
	layer             map[string]float64 // perLayer metrics (traced runs)
	info              map[string]float64 // sample counts and diagnostics, by name

	// Time the rigs' calls took with a span around each and without: the
	// difference is the tracing overhead.
	tracedBusy, untracedBusy time.Duration
	rigSpan                  int // the span the rigs' spans hang under
}

// share returns the given share of the run's measuring time.
func (r *run) share(frac float64) time.Duration {
	return time.Duration(frac * r.seconds * float64(time.Second))
}

// problem records a failed output check; the run then reports correct=false
// and the command exits non-zero.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", r.workload, msg)
}

// ops accounts operations: attempted of them, of which failed failed.
func (r *run) ops(attempted, failed uint64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *run) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// execute runs one workload, traced or not.
func execute(w workloadSpec, seed int64, seconds float64, traced bool) (*run, error) {
	r := &run{workload: w.Name, seed: seed, seconds: seconds,
		e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]float64{}}
	if traced {
		// The traced run is the shorter one: end-to-end figures come from
		// untraced runs, and the rigs take their own time.
		r.rec = newRecorder()
		r.seconds /= 2
	}
	start := time.Now()
	if err := w.run(r); err != nil {
		return r, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.info["run_wall_s"] = time.Since(start).Seconds()
	if traced {
		for _, m := range headline {
			r.layer[m.Name] = r.e2e[m.Name]
		}
		path := fmt.Sprintf("out/trace-%s.json", w.Name)
		if err := r.rec.write(path); err != nil {
			return r, fmt.Errorf("%s: writing %s: %w", w.Name, path, err)
		}
	}
	for _, m := range endToEnd {
		if v, ok := r.e2e[m.Name]; !ok || v <= 0 {
			r.problem("end-to-end metric %s was not measured (%v)", m.Name, v)
		}
	}
	return r, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func values(specs []metricSpec, from map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		out[m.Name] = metricValue{from[m.Name], m.Unit}
	}
	return out
}

// environment is recorded with every suite result, so two results can be
// told apart before they are compared.
func environment(seed int64) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "seed": seed, "commit": commit,
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 1, "seed of every generated input: flow tuples, Zipf schedule, churn sequence")
		seconds  = flag.Float64("seconds", runSeconds, "seconds each workload measures for")
		trace    = flag.String("trace", "0", "1 (or bare -trace): traced run, reporting per-layer metrics and writing out/trace-<workload>.json")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times")
		check    = flag.Bool("check", false, "with -repeat 2: fail if an end-to-end metric differs between the two sets by more than -check's bound for it")
	)
	// -trace is a boolean to people and takes a value from the driver.
	args := os.Args[1:]
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || strings.HasPrefix(args[i+1], "-")) {
			args[i] = "-trace=1"
		}
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad -trace, -seconds or -repeat")
		os.Exit(2)
	}

	if *workload != "" {
		os.Exit(driverRun(*workload, *seed, *seconds, traced))
	}
	os.Exit(suite(*seed, *seconds, traced, *repeat, *check))
}

// driverRun runs one workload and prints, as the last line of standard
// output, the one-object result BENCHMARK.json's driver reads: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one.
func driverRun(name string, seed int64, seconds float64, traced bool) int {
	// The driver gives a run 180 s. One that is still going well past its
	// usual 25 s is stuck; say where, and fail, instead of being killed mute.
	time.AfterFunc(min(time.Duration(seconds)*time.Second+2*time.Minute, 170*time.Second), func() {
		fmt.Fprintln(os.Stderr, "bench: run still going after its time and two minutes more; goroutines:")
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})
	for _, w := range workloads {
		if w.Name != name {
			continue
		}
		r, err := execute(w, seed, seconds, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		report(os.Stderr, r)
		specs, from := endToEnd, r.e2e
		if traced {
			specs, from = perLayer, r.layer
		}
		line, _ := json.Marshal(map[string]any{
			"correct": r.correct(), "attempted": r.attempted, "failed": r.failed,
			"metrics": values(specs, from),
		})
		fmt.Println(string(line))
		if !r.correct() {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
	return 2
}

// report prints a run for people.
func report(w *os.File, r *run) {
	fmt.Fprintf(w, "== %s seed=%d: %d operations, %d failed, correct=%v\n", r.workload, r.seed, r.attempted, r.failed, r.correct())
	for _, group := range []struct {
		specs []metricSpec
		from  map[string]float64
	}{{endToEnd, r.e2e}, {headline, r.e2e}, {perLayer[len(headline):], r.layer}} {
		for _, m := range group.specs {
			if v, ok := group.from[m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	names := make([]string, 0, len(r.info))
	for k := range r.info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  . %-34s %14.4f\n", k, r.info[k])
	}
}

// suite runs every workload repeat times and prints one JSON document with
// every metric by name. With check it compares the first two sets.
func suite(seed int64, seconds float64, traced bool, repeat int, check bool) int {
	type workloadResult struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Problems  []string               `json:"problems,omitempty"`
		EndToEnd  map[string]metricValue `json:"end_to_end"`
		PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
		Info      map[string]float64     `json:"info"`
	}
	exit := 0
	var sets []map[string]workloadResult
	for i := 0; i < repeat; i++ {
		set := map[string]workloadResult{}
		for _, w := range workloads {
			r, err := execute(w, seed, seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			report(os.Stderr, r)
			res := workloadResult{r.correct(), r.attempted, r.failed, r.problems,
				values(bounded(w.Name), r.e2e), nil, r.info}
			if traced {
				// End-to-end figures always come from the untraced run; the
				// traced run adds the per-layer ones.
				tr, err := execute(w, seed, seconds, true)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				report(os.Stderr, tr)
				res.PerLayer = values(perLayer[len(headline):], tr.layer)
				res.Correct = res.Correct && tr.correct()
				res.Problems = append(res.Problems, tr.problems...)
			}
			if !res.Correct {
				exit = 1
			}
			set[w.Name] = res
		}
		sets = append(sets, set)
	}
	doc := map[string]any{"environment": environment(seed), "seconds": seconds, "sets": sets}
	if check && repeat >= 2 {
		var rows []map[string]any
		for _, w := range workloads {
			a, b := sets[0][w.Name].EndToEnd, sets[1][w.Name].EndToEnd
			for _, m := range bounded(w.Name) {
				lo, hi := min(a[m.Name].Value, b[m.Name].Value), max(a[m.Name].Value, b[m.Name].Value)
				spread := 0.0
				if lo > 0 {
					spread = hi/lo - 1
				}
				ok := spread <= m.Bound
				if !ok {
					exit = 1
					fmt.Fprintf(os.Stderr, "bench: -check: %s %s differs by %.1f%% between the two sets, bound %.0f%%\n",
						w.Name, m.Name, 100*spread, 100*m.Bound)
				}
				rows = append(rows, map[string]any{"workload": w.Name, "metric": m.Name,
					"first": a[m.Name].Value, "second": b[m.Name].Value, "spread": spread, "bound": m.Bound, "within": ok})
			}
		}
		doc["check"] = rows
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Println(string(out))
	return exit
}

// pairSlack widens BENCHMARK.json's bounds for -check. The driver holds them
// against medians of ten runs; -check compares two single runs, which differ
// by some two and a half times as much.
const pairSlack = 2

// bounded returns the metrics the suite holds a workload to, each with the
// bound -check applies to a pair of runs: the end-to-end ones, and the
// headline ones the workload measures.
func bounded(workload string) []metricSpec {
	out := append([]metricSpec(nil), endToEnd...)
	for i := range out {
		out[i].Bound *= pairSlack
	}
	for _, m := range headline {
		if slices.Contains(headlineOf[m.Name], workload) {
			out = append(out, m)
		}
	}
	return out
}
