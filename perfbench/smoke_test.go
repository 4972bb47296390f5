package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declaration is the part of BENCHMARK.json the benchmark must agree
// with.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestDeclarationMatches keeps BENCHMARK.json and the metric tables in
// step: every metric the JSON result carries is declared with the same
// unit and direction, and every declared workload exists.
func TestDeclarationMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(declared, ","), strings.ReplaceAll(workloadNames(), ", ", ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	check := func(kind string, specs []metric, got []struct{ Name, Unit, Better string }) {
		var want []string
		for _, m := range specs {
			if m.inJSON {
				want = append(want, m.name+" "+m.unit+" "+m.better)
			}
		}
		var have []string
		for _, m := range got {
			have = append(have, m.Name+" "+m.Unit+" "+m.Better)
		}
		if strings.Join(have, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s metrics differ:\nBENCHMARK.json:\n%s\nbenchmark:\n%s", kind, strings.Join(have, "\n"), strings.Join(want, "\n"))
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
}

// TestSmoke runs every workload for a couple of seconds, untraced and
// traced, and requires every correctness check to pass and the JSON
// result to carry exactly the declared metrics: a broken benchmark fails
// here in under a minute instead of producing numbers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", wl.name, "--seed", "7", "--seconds", "2",
					"--warmup", "1s", "--setups", "1", "--trace", trace}, &out, &errOut)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				var want, got []string
				for _, m := range specs {
					if m.inJSON {
						want = append(want, m.name)
					}
				}
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(want)
				sort.Strings(got)
				if !res.Correct || res.Attempted < 1 || strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("result %s", lines[len(lines)-1])
				}
				if trace == "0" {
					for _, m := range endToEnd {
						if v := res.Metrics[m.name].Value; v <= 0 {
							t.Errorf("%s = %v; end-to-end metrics are never zero", m.name, v)
						}
					}
				}
			})
		}
	}
}
