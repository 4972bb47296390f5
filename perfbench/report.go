package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// printRun prints a run's context lines, its checks, and the named
// metrics with their units and directions.
func printRun(w io.Writer, label string, r *result, specs []metric) {
	for _, line := range r.context {
		fmt.Fprintf(w, "%s run: %s\n", label, line)
	}
	for _, c := range r.checks {
		state := "ok"
		if !c.ok {
			state = "FAILED"
		}
		fmt.Fprintf(w, "%s check %s %s: %s\n", label, c.name, state, c.detail)
	}
	for _, m := range specs {
		v, ok := r.metrics[m.name]
		if !ok {
			fmt.Fprintf(w, "%s metric %-28s n/a (not exercised by this workload)\n", label, m.name)
			continue
		}
		fmt.Fprintf(w, "%s metric %-28s %.6g %s (%s is better)\n", label, m.name, v, m.unit, m.better)
	}
}

// printReconciliation compares the sum of the traced blocking-path stage
// medians with the untraced end-to-end latencies, names the dominant
// stage, and reports the tracing overhead per end-to-end metric. The
// part of the end-to-end time no stage covers is queueing, scheduling,
// and the work between the instrumented calls.
func printReconciliation(w io.Writer, wl *workload, untraced, traced *result) {
	fmt.Fprintf(w, "reconciliation %s (stage medians from the traced run, ms):\n", wl.name)
	stageMs := func(name string) float64 {
		if strings.HasSuffix(name, "_ms") {
			return traced.metrics[name]
		}
		return traced.metrics[name] / 1e3 // a _us_ stage
	}
	var sum, top float64
	dominant := ""
	for _, s := range append(wl.stages, wl.gap) {
		ms := stageMs(s)
		fmt.Fprintf(w, "  stage %-28s %.4f ms\n", s, ms)
		if ms > top {
			top, dominant = ms, s
		}
	}
	for _, s := range wl.stages {
		sum += stageMs(s)
	}
	pub, del := untraced.metrics["publish_p50_ms"], untraced.metrics["delivery_p50_ms"]
	fmt.Fprintf(w, "  due -> publish: stages %.4f ms of publish_p50_ms %.4f (unattributed %.4f)\n", sum, pub, pub-sum)
	sum += stageMs(wl.gap)
	fmt.Fprintf(w, "  due -> receipt: stages %.4f ms of delivery_p50_ms %.4f (unattributed %.4f)\n", sum, del, del-sum)
	if del-sum > top {
		fmt.Fprintf(w, "  dominant: unattributed queueing and scheduling (%.4f ms > %s %.4f ms)\n", del-sum, dominant, top)
	} else {
		fmt.Fprintf(w, "  dominant: %s (%.4f ms of %.4f ms)\n", dominant, top, del)
	}
	fmt.Fprintln(w, "tracing overhead (traced - untraced):")
	for _, m := range endToEnd {
		u, t := untraced.metrics[m.name], traced.metrics[m.name]
		fmt.Fprintf(w, "  %-22s untraced %.6g  traced %.6g  delta %+.6g %s (%+.1f%%)\n", m.name, u, t, t-u, m.unit, 100*(t-u)/u)
	}
}

// runContext describes the machine and source a result came from.
func runContext() []string {
	root := repoRoot()
	return []string{
		fmt.Sprintf("nproc %d, GOMAXPROCS %d, cpu %q, %s %s/%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("commit %s, source sha256 %s", commit(root), sourceDigest(root)),
		fmt.Sprintf("seeds: default %d, held-out %d", defaultSeed, heldOutSeed),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repoRoot is the checkout the benchmark runs in: the working directory
// when started by run.sh, its parent when run as a test from perfbench/.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "internal", "serve")); err == nil {
			return dir
		}
	}
	return "."
}

// commit reads HEAD from the checkout's .git directory; a checkout that
// is not a git repository reports "none", and the source digest then
// identifies the code instead.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown (" + ref + ")"
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes every Go source and go.mod file of the checkout,
// in path order, skipping build output and the vendored tools.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root || d.Name() == "third_party") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		rel, rerr := filepath.Rel(root, p)
		if err != nil || rerr != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
