package collector

import (
	"context"
	"log/slog"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"tafloc/internal/geom"
	"tafloc/internal/rf"
	"tafloc/internal/wire"
)

func testChannel(t *testing.T) *rf.Channel {
	t.Helper()
	grid, err := geom.NewGrid(7.2, 4.8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	p := rf.DefaultParams()
	p.Seed = 42
	ch, err := rf.NewChannel(p, geom.CrossedDeployment(7.2, 4.8, 10), grid)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Fatal("accepted zero links")
	}
	s, err := NewStore(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Links() != 3 {
		t.Fatalf("Links = %d", s.Links())
	}
}

func TestStoreSurveyPass(t *testing.T) {
	s, _ := NewStore(2)
	s.BeginSurvey(17)
	for k := 0; k < 5; k++ {
		for link := uint16(0); link < 2; link++ {
			r := &wire.RSSReport{LinkID: link, Seq: uint32(k + 1), Flags: wire.FlagSurvey}
			r.SetRSS(-40 - float64(link)*10)
			s.AddReport(r)
		}
	}
	means, counts, cell := s.EndPass()
	if cell != 17 {
		t.Fatalf("cell = %d", cell)
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("counts = %v", counts)
	}
	if means[0] != -40 || means[1] != -50 {
		t.Fatalf("means = %v", means)
	}
	// After the pass the mode is live again.
	r := &wire.RSSReport{LinkID: 0, Seq: 100}
	r.SetRSS(-33)
	s.AddReport(r)
	if c := s.PassCounts(); c[0] != 0 {
		t.Fatal("live-mode sample leaked into pass accumulator")
	}
}

func TestStoreVacantPassOnlyCountsVacantFrames(t *testing.T) {
	s, _ := NewStore(1)
	s.BeginVacant()
	vac := &wire.RSSReport{LinkID: 0, Seq: 1, Flags: wire.FlagVacant}
	vac.SetRSS(-45)
	s.AddReport(vac)
	live := &wire.RSSReport{LinkID: 0, Seq: 2}
	live.SetRSS(-60)
	s.AddReport(live)
	means, counts, cell := s.EndPass()
	if cell != -1 {
		t.Fatalf("vacant pass cell = %d", cell)
	}
	if counts[0] != 1 || means[0] != -45 {
		t.Fatalf("vacant pass means=%v counts=%v", means, counts)
	}
}

func TestStoreDuplicateFramesExcludedFromPass(t *testing.T) {
	s, _ := NewStore(1)
	s.BeginSurvey(0)
	r := &wire.RSSReport{LinkID: 0, Seq: 5}
	r.SetRSS(-40)
	s.AddReport(r)
	s.AddReport(r) // duplicate: same seq
	old := &wire.RSSReport{LinkID: 0, Seq: 3}
	old.SetRSS(-90)
	s.AddReport(old) // reordered: older seq
	_, counts, _ := s.EndPass()
	if counts[0] != 1 {
		t.Fatalf("duplicates counted: %d", counts[0])
	}
}

func TestStoreDropsUnknownLink(t *testing.T) {
	s, _ := NewStore(2)
	r := &wire.RSSReport{LinkID: 9}
	s.AddReport(r)
	if st := s.Stats(); st.FramesDropped != 1 || st.FramesReceived != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// startCollector spins up a collector on loopback and returns it with its
// bound addresses.
func startCollector(t *testing.T, m int) (*Collector, string, string, context.CancelFunc) {
	t.Helper()
	c, err := New(m, 8, slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	dataAddr, ctrlAddr, err := c.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		c.Wait()
	})
	return c, dataAddr, ctrlAddr, cancel
}

func TestCollectorEndToEndVacantCapture(t *testing.T) {
	ch := testChannel(t)
	c, dataAddr, ctrlAddr, _ := startCollector(t, ch.M())

	fleetCtx, stopFleet := context.WithCancel(context.Background())
	defer stopFleet()
	fleet, err := NewFleet(ch, dataAddr, AgentConfig{Interval: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fleet.Run(fleetCtx)
	}()

	orch, err := Dial(ctrlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()

	if err := orch.StartVacant(80); err != nil {
		t.Fatal(err)
	}
	if !c.Store.WaitForCounts(80, 10*time.Second) {
		t.Fatal("timed out waiting for vacant samples")
	}
	means, counts, cell := c.Store.EndPass()
	if cell != -1 {
		t.Fatalf("vacant pass cell %d", cell)
	}
	truth := ch.TrueVacant(0)
	for i := range means {
		if counts[i] < 80 {
			t.Fatalf("link %d only %d samples", i, counts[i])
		}
		if math.Abs(means[i]-truth[i]) > 1.5 {
			t.Fatalf("link %d vacant mean %.2f vs truth %.2f", i, means[i], truth[i])
		}
	}
	if err := orch.Snapshot(); err != nil {
		t.Fatal(err)
	}
	stopFleet()
	wg.Wait()
}

func TestCollectorEndToEndSurveyPass(t *testing.T) {
	ch := testChannel(t)
	c, dataAddr, ctrlAddr, _ := startCollector(t, ch.M())

	cell := 40
	target := ch.Grid().Center(cell)
	fleetCtx, stopFleet := context.WithCancel(context.Background())
	defer stopFleet()
	fleet, err := NewFleet(ch, dataAddr, AgentConfig{
		Interval: 500 * time.Microsecond,
		Target:   func() (geom.Point, bool) { return target, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fleet.Run(fleetCtx)
	}()

	orch, err := Dial(ctrlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()
	if err := orch.StartSurvey(cell, 80); err != nil {
		t.Fatal(err)
	}
	if !c.Store.WaitForCounts(80, 10*time.Second) {
		t.Fatal("timed out waiting for survey samples")
	}
	means, _, gotCell := c.Store.EndPass()
	if gotCell != cell {
		t.Fatalf("surveyed cell %d, want %d", gotCell, cell)
	}
	for i := range means {
		want := ch.TargetRSS(i, target, 0)
		if math.Abs(means[i]-want) > 1.5 {
			t.Fatalf("link %d survey mean %.2f vs truth %.2f", i, means[i], want)
		}
	}
	stopFleet()
	wg.Wait()
}

func TestCollectorDropsCorruptDatagrams(t *testing.T) {
	c, dataAddr, _, _ := startCollector(t, 4)
	conn, err := net.Dial("udp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send garbage, a truncated frame, and one valid frame.
	conn.Write([]byte("garbage data that is not a frame"))
	r := wire.RSSReport{LinkID: 1, Seq: 1}
	r.SetRSS(-50)
	valid := r.Encode()
	conn.Write(valid[:10])
	conn.Write(valid)

	// The 32-byte garbage datagram counts as one bad frame plus a runt
	// tail (2 drops), the truncated frame as one, so 4 frames arrive of
	// which 3 drop.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Store.Stats()
		if st.FramesReceived >= 4 {
			if st.FramesDropped != 3 {
				t.Fatalf("dropped = %d, want 3", st.FramesDropped)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames not received: %+v", c.Store.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOrchestratorUnknownMessage(t *testing.T) {
	_, _, ctrlAddr, _ := startCollector(t, 2)
	conn, err := net.Dial("tcp", ctrlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cc := wire.NewControlConn(conn)
	if err := cc.Send(wire.ControlMessage{Type: "bogus"}); err != nil {
		t.Fatal(err)
	}
	reply, err := cc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.MsgError {
		t.Fatalf("reply = %+v, want error", reply)
	}
}

func TestCollectorStopUnblocks(t *testing.T) {
	c, _, _, cancel := startCollector(t, 2)
	cancel()
	done := make(chan struct{})
	go func() {
		c.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("collector did not shut down")
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := NewFleet(nil, "127.0.0.1:1", AgentConfig{}); err == nil {
		t.Fatal("accepted nil channel")
	}
	ch := testChannel(t)
	if _, err := NewFleet(ch, "not-an-address", AgentConfig{}); err == nil {
		t.Fatal("accepted bad address")
	}
}
