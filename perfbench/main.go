// Command perfbench is the repository's benchmark. It runs one named
// workload against an in-process TafLoc service, driving it from outside
// through its public API only, checks the service's outputs, and prints
// the end-to-end metrics as the last line of standard output, one JSON
// object. With --trace 1 it runs the workload twice, untraced and then
// traced, and prints the per-layer metrics instead, plus a report that
// reconciles the per-layer stages with the end-to-end latencies.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload walk-http --seed 1 --seconds 10 --trace 0
//
// A run whose checks fail prints "correct": false and no metrics, and
// exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

// The default seed, and a held-out seed for re-checking a claim on
// inputs its author did not tune against.
const (
	defaultSeed = 1
	heldOutSeed = 90173
)

// workload is one traffic mix; BENCHMARK.json at the repository root
// records why each was chosen.
type workload struct {
	name string
	run  func(options, *tracer) (*result, error)
	// stages are the per-layer medians on the blocking path from a
	// batch's due time to its estimate's publication, in order; gap is
	// the stage from publication to the consumer's receipt.
	stages []string
	gap    string
}

// The accepted ranges of loc_error_p50_m per workload, pinned from seed
// runs: a change that moves the median localization error out of its
// band fails the accuracy check.
var (
	walkBand    = [2]float64{0.35, 0.65}
	fleetBand   = [2]float64{0.30, 0.60}
	refreshBand = [2]float64{0.55, 1.00}
)

var workloads = []workload{
	{
		name:   "walk-http",
		run:    runWalk,
		stages: []string{"gen.lag_p50_ms", "client.send_us_p50", "core.detect_us_p50", "core.locate_us_p50"},
		gap:    "client.sse_gap_p50_ms",
	},
	{
		name:   "fleet-cold",
		run:    runFleet,
		stages: []string{"gen.lag_p50_ms", "ingest.us_p50", "core.detect_us_p50", "core.locate_us_p50"},
		gap:    "publish.watch_gap_us_p50",
	},
	{
		name:   "refresh-udp",
		run:    runRefresh,
		stages: []string{"gen.lag_p50_ms", "collector.transit_us_p50", "collector.sink_us_p50", "core.detect_us_p50", "core.locate_us_p50"},
		gap:    "publish.watch_gap_us_p50",
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and reports the per-layer metrics")
	warmup := fs.Duration("warmup", 2*time.Second, "open-loop traffic before the window opens")
	setups := fs.Int("setups", 0, "set-up repetitions on each side of the window behind setup_s (0 = the workload's default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), warmup: *warmup, setups: *setups}

	fmt.Fprintf(stdout, "perfbench %s: seed %d, window %v, warm-up %v, trace %d\n", wl.name, o.seed, o.window, o.warmup, *trace)
	for _, line := range runContext() {
		fmt.Fprintln(stdout, "context:", line)
	}
	untraced, err := wl.run(o, nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", wl.name, err)
		return 1
	}
	printRun(stdout, "untraced", untraced, append(endToEnd, untracedExtra...))
	report, specs := untraced, endToEnd
	if *trace == 1 {
		tr := newTracer()
		active.Store(tr)
		traced, err := wl.run(o, tr)
		active.Store(nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s (traced): %v\n", wl.name, err)
			return 1
		}
		printRun(stdout, "traced", traced, perLayer)
		printReconciliation(stdout, wl, untraced, traced)
		report, specs = traced, perLayer
	}

	ok := untraced.ok() && report.ok()
	out := map[string]any{}
	for _, m := range specs {
		v := report.metrics[m.name]
		if !m.inJSON {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stdout, "check finite FAILED: %s is %v\n", m.name, v)
			ok = false
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if !ok {
		out = map[string]any{}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   ok,
		"attempted": report.attempted,
		"failed":    report.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func (r *result) ok() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}
