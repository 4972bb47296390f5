package eval

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"tafloc/internal/testbed"
)

// fastConfig shrinks the harness for unit-test speed while keeping the
// paper geometry.
func fastConfig() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.TestTargets = 20
	cfg.LiveWindow = 6
	return cfg
}

func noteValue(t *testing.T, notes []string, prefix, unit string) float64 {
	t.Helper()
	for _, n := range notes {
		if !strings.HasPrefix(n, prefix) {
			continue
		}
		rest := n[len(prefix):]
		if i := strings.Index(rest, unit); i >= 0 {
			fields := strings.Fields(rest[:i])
			if len(fields) == 0 {
				break
			}
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", n, err)
			}
			return v
		}
	}
	t.Fatalf("note with prefix %q not found in %v", prefix, notes)
	return 0
}

func TestFig3ReproducesPaperShape(t *testing.T) {
	fig, err := Fig3(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("fig3 has %d series, want 4", len(fig.Series))
	}
	// Means must grow with age and stay within the paper's band +- 1 dB.
	want := []struct {
		prefix string
		paper  float64
	}{
		{"3 days:", 2.7}, {"15 days:", 3.3}, {"45 days:", 3.6}, {"3 months:", 4.1},
	}
	var prev float64
	for _, w := range want {
		got := noteValue(t, fig.Notes, w.prefix, " dBm")
		if got < prev {
			t.Fatalf("reconstruction error shrank over time at %q: %.2f < %.2f", w.prefix, got, prev)
		}
		if got < w.paper-1.0 || got > w.paper+1.0 {
			t.Fatalf("%s mean %.2f dBm outside paper band %.1f +- 1.0", w.prefix, got, w.paper)
		}
		prev = got
	}
	// Every CDF series must be monotone and end near 1.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("series %s CDF not monotone", s.Name)
			}
		}
		if s.Y[len(s.Y)-1] < 0.95 {
			t.Fatalf("series %s CDF does not approach 1 within 15 dBm", s.Name)
		}
	}
}

func TestFig4ReproducesPaperNumbers(t *testing.T) {
	fig, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("fig4 has %d series", len(fig.Series))
	}
	var taf, full Series
	for _, s := range fig.Series {
		switch s.Name {
		case "TafLoc":
			taf = s
		case "Existing systems":
			full = s
		}
	}
	// Anchor points from the paper.
	if full.Y[0] < 2.7 || full.Y[0] > 2.9 {
		t.Fatalf("existing @6m = %.2f h, paper 2.78", full.Y[0])
	}
	if taf.Y[0] < 0.2 || taf.Y[0] > 0.4 {
		t.Fatalf("TafLoc @6m = %.2f h, paper 0.28", taf.Y[0])
	}
	last := len(full.Y) - 1
	if full.Y[last] < 90 || full.Y[last] > 110 {
		t.Fatalf("existing @36m = %.1f h, paper ~100", full.Y[last])
	}
	if taf.Y[last] < 0.8 || taf.Y[last] > 2.5 {
		t.Fatalf("TafLoc @36m = %.2f h, paper ~1.6", taf.Y[last])
	}
	// Quadratic vs ~linear growth: the savings ratio must explode.
	if full.Y[last]/taf.Y[last] < 20 {
		t.Fatalf("savings at 36 m only %.1fx", full.Y[last]/taf.Y[last])
	}
	// Existing-system cost grows monotonically.
	for i := 1; i < len(full.Y); i++ {
		if full.Y[i] <= full.Y[i-1] {
			t.Fatal("existing cost must grow with area")
		}
	}
}

func TestFig5ReproducesOrdering(t *testing.T) {
	fig, err := Fig5(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("fig5 has %d series", len(fig.Series))
	}
	med := map[string]float64{}
	mean := map[string]float64{}
	for _, name := range Fig5Systems {
		med[name] = noteValue(t, fig.Notes, name+":", " m,")
		// mean follows "median X m, mean Y m" in the note.
		mean[name] = noteValue(t, fig.Notes, name+": median "+
			trimFloat(med[name])+" m, mean", " m,")
	}
	// The paper's headline claims: TafLoc performs best overall, and the
	// reconstruction scheme significantly improves RASS. Our simulator
	// grants RTI its exact link geometry and a fresh vacant capture, so
	// RTI is competitive at the lowest quantiles; TafLoc must win the
	// mean outright and stay within a whisker on the median.
	for _, other := range []string{"RTI", "RASS w/ rec.", "RASS w/o rec."} {
		if mean["TafLoc"] > mean[other] {
			t.Fatalf("TafLoc mean %.2f m worse than %s %.2f m", mean["TafLoc"], other, mean[other])
		}
		if med["TafLoc"] > med[other]*1.35 {
			t.Fatalf("TafLoc median %.2f m far above %s %.2f m", med["TafLoc"], other, med[other])
		}
	}
	if med["RASS w/ rec."] >= med["RASS w/o rec."]*0.85 {
		t.Fatalf("reconstruction did not significantly improve RASS: %.2f vs %.2f",
			med["RASS w/ rec."], med["RASS w/o rec."])
	}
	// Accuracy bands: the seeded fastConfig run gives TafLoc a median
	// of 0.74 m and a mean of 1.32 m, the same on every run and at
	// GOMAXPROCS 1 and 2. A change that moves either by more than 5% has
	// changed what the pipeline computes.
	for _, b := range []struct {
		stat      string
		got, want float64
	}{
		{"median", med["TafLoc"], 0.74},
		{"mean", mean["TafLoc"], 1.32},
	} {
		if math.Abs(b.got-b.want) > 0.05*b.want {
			t.Errorf("TafLoc %s %.2f m outside %.2f m ± 5%%", b.stat, b.got, b.want)
		}
	}
}

// trimFloat renders a float the same way the note formatting does.
func trimFloat(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func TestDriftTableMatchesAnchors(t *testing.T) {
	tbl, err := DriftTable(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	byDay := map[string]string{}
	for _, row := range tbl.Rows {
		byDay[row[0]] = row[1]
	}
	check := func(day string, want float64) {
		v, err := strconv.ParseFloat(byDay[day], 64)
		if err != nil {
			t.Fatalf("row %s: %v", day, err)
		}
		if v < want-0.4 || v > want+0.4 {
			t.Fatalf("drift @%s d = %.2f, want ~%.1f", day, v, want)
		}
	}
	check("5", 2.5)
	check("45", 6.0)
}

func TestCostTableMatchesPaper(t *testing.T) {
	tbl, err := CostTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("cost table rows = %d", len(tbl.Rows))
	}
	full, _ := strconv.ParseFloat(tbl.Rows[0][2], 64)
	ref, _ := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if full < 2.7 || full > 2.9 || ref < 0.25 || ref > 0.31 {
		t.Fatalf("cost table %g / %g, want 2.78 / 0.28", full, ref)
	}
}

func TestFig1MatrixProperties(t *testing.T) {
	fig, err := Fig1(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 {
		t.Fatalf("fig1 series = %d", len(fig.Series))
	}
	s := fig.Series[0].Y
	// Singular values sorted descending with meaningful decay.
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1]+1e-9 {
			t.Fatal("singular values not sorted")
		}
	}
	if s[0] <= 0 {
		t.Fatal("degenerate spectrum")
	}
	if s[len(s)-1] > 0.5*s[0] {
		t.Fatal("spectrum shows no approximate low-rank decay")
	}
}

func TestAblationQuantifiesDesignChoices(t *testing.T) {
	tbl, err := Ablation(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if v <= 0 || v > 20 {
			t.Fatalf("implausible ablation value %v", row)
		}
		vals[row[0]] = v
	}
	full := vals["full LoLi-IR"]
	// Dropping both smoothness terms must hurt measurably: the priors are
	// what identify distorted entries off the reference columns.
	if vals["no smoothness terms"] <= full {
		t.Fatalf("smoothness ablation did not hurt: full %.2f vs %.2f",
			full, vals["no smoothness terms"])
	}
	// More references should not make things worse than the fewest.
	if vals["references n=24"] > vals["references n=4"] {
		t.Fatalf("more references degraded reconstruction: n=24 %.2f vs n=4 %.2f",
			vals["references n=24"], vals["references n=4"])
	}
}

func TestExperimentsWithSmallerDeployment(t *testing.T) {
	// The harnesses must work on non-paper deployments too.
	cfg := fastConfig()
	cfg.Testbed = testbed.SquareConfig(6)
	cfg.TestTargets = 10
	if _, err := Fig3(cfg); err != nil {
		t.Fatalf("fig3 on 6 m square: %v", err)
	}
	if _, err := Fig5(cfg); err != nil {
		t.Fatalf("fig5 on 6 m square: %v", err)
	}
	if _, err := Fig1(cfg); err != nil {
		t.Fatalf("fig1 on 6 m square: %v", err)
	}
}
