package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 1 {
		t.Fatalf("Dot = %g", got)
	}
	if got := (Point{3, 4}).Norm(); got != 5 {
		t.Fatalf("Norm = %g", got)
	}
	if got := p.Dist(p); got != 0 {
		t.Fatalf("Dist self = %g", got)
	}
}

func TestSegmentLengthMidpoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{6, 8}}
	if got := s.Length(); got != 10 {
		t.Fatalf("Length = %g", got)
	}
	if got := s.Midpoint(); got != (Point{3, 4}) {
		t.Fatalf("Midpoint = %v", got)
	}
}

func TestDistToPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},   // perpendicular foot inside segment
		{Point{-3, 4}, 5},  // beyond A: distance to A
		{Point{13, -4}, 5}, // beyond B: distance to B
		{Point{7, 0}, 0},   // on the segment
		{Point{0, 0}, 0},   // endpoint
	}
	for _, c := range cases {
		if got := s.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("DistToPoint(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestDistToPointDegenerateSegment(t *testing.T) {
	s := Segment{Point{2, 2}, Point{2, 2}}
	if got := s.DistToPoint(Point{5, 6}); got != 5 {
		t.Fatalf("degenerate DistToPoint = %g, want 5", got)
	}
}

func TestExcessPathLength(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	// On the LoS the excess is zero.
	if got := s.ExcessPathLength(Point{4, 0}); math.Abs(got) > 1e-12 {
		t.Fatalf("on-path excess = %g", got)
	}
	// At (5,1): sqrt(26)+sqrt(26)-10.
	want := 2*math.Sqrt(26) - 10
	if got := s.ExcessPathLength(Point{5, 1}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("excess = %g, want %g", got, want)
	}
}

// Property: excess path length is non-negative (triangle inequality) and
// monotone with perpendicular distance at the midpoint.
func TestExcessPathLengthProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(_ int64) bool {
		s := Segment{
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		p := Point{rng.Float64() * 10, rng.Float64() * 10}
		return s.ExcessPathLength(p) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInEllipse(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	if !s.InEllipse(Point{5, 0.1}, 0.5) {
		t.Fatal("point near LoS should be inside the ellipse")
	}
	if s.InEllipse(Point{5, 5}, 0.5) {
		t.Fatal("distant point should be outside the ellipse")
	}
	// Boundary consistency: a point whose excess equals the threshold is in.
	p := Point{5, 1}
	if !s.InEllipse(p, s.ExcessPathLength(p)) {
		t.Fatal("boundary point must be inside")
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 5, 1); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewGrid(5, 5, -1); err == nil {
		t.Fatal("negative cell accepted")
	}
	if _, err := NewGrid(1, 5, 2); err == nil {
		t.Fatal("cell larger than area accepted")
	}
}

func TestGridPaperDimensions(t *testing.T) {
	// The paper covers 96 cells of 0.6 m: e.g. a 7.2 m x 4.8 m sub-area
	// gives 12 x 8 = 96 cells.
	g, err := NewGrid(7.2, 4.8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 96 {
		t.Fatalf("Cells = %d, want 96", g.Cells())
	}
	if g.NX() != 12 || g.NY() != 8 {
		t.Fatalf("grid %dx%d, want 12x8", g.NX(), g.NY())
	}
}

func TestGridCenterCellAtRoundTrip(t *testing.T) {
	g, err := NewGrid(6, 6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < g.Cells(); j++ {
		c := g.Center(j)
		if got := g.CellAt(c); got != j {
			t.Fatalf("CellAt(Center(%d)) = %d", j, got)
		}
	}
}

func TestGridCellAtOutside(t *testing.T) {
	g, _ := NewGrid(6, 6, 0.6)
	for _, p := range []Point{{-1, 3}, {3, -1}, {7, 3}, {3, 7}} {
		if got := g.CellAt(p); got != -1 {
			t.Fatalf("CellAt(%v) = %d, want -1", p, got)
		}
	}
}

func TestGridNeighbors4(t *testing.T) {
	g, _ := NewGrid(3, 3, 1) // 3x3 grid, indices 0..8
	cases := map[int]int{
		0: 2, // corner
		1: 3, // edge
		4: 4, // interior
	}
	for j, want := range cases {
		if got := len(g.Neighbors4(j)); got != want {
			t.Fatalf("Neighbors4(%d) count = %d, want %d", j, got, want)
		}
	}
	// Neighbour distance is exactly one cell size.
	for _, nb := range g.Neighbors4(4) {
		if d := g.CellDist(4, nb); math.Abs(d-1) > 1e-12 {
			t.Fatalf("neighbour distance = %g", d)
		}
	}
}

func TestGridNeighborsSymmetric(t *testing.T) {
	g, _ := NewGrid(6, 4.2, 0.6)
	for j := 0; j < g.Cells(); j++ {
		for _, nb := range g.Neighbors4(j) {
			found := false
			for _, back := range g.Neighbors4(nb) {
				if back == j {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", j, nb)
			}
		}
	}
}

func TestOppositeSidePairs(t *testing.T) {
	segs := OppositeSidePairs(12, 9, 10)
	if len(segs) != 10 {
		t.Fatalf("got %d links", len(segs))
	}
	for _, s := range segs {
		if s.A.Y != 0 || s.B.Y != 9 {
			t.Fatalf("link %v does not span the two sides", s)
		}
		if math.Abs(s.Length()-9) > 1e-12 {
			t.Fatalf("link length %g", s.Length())
		}
	}
}

func TestCrossedDeploymentCoversBothOrientations(t *testing.T) {
	segs := CrossedDeployment(12, 9, 10)
	if len(segs) != 10 {
		t.Fatalf("got %d links", len(segs))
	}
	var vert, horiz int
	for _, s := range segs {
		if s.A.X == s.B.X {
			vert++
		} else if s.A.Y == s.B.Y {
			horiz++
		} else {
			t.Fatalf("unexpected diagonal link %v", s)
		}
	}
	if vert == 0 || horiz == 0 {
		t.Fatalf("deployment must mix orientations: %d vertical, %d horizontal", vert, horiz)
	}
}
