package collector

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"tafloc/internal/wire"
)

// TestCollectorBatchDatagramAndSink sends concatenated-batch datagrams
// and checks every kept frame reaches both the store and the registered
// batch sink, while corrupt frames and frames for unknown links are
// dropped one frame at a time and never forwarded.
func TestCollectorBatchDatagramAndSink(t *testing.T) {
	const links = 3
	c, err := New(links, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sunk []wire.RSSReport
	c.SetBatchSink(func(frames []wire.RSSReport) {
		mu.Lock()
		sunk = append(sunk, frames...) // copy: the slice is reused
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	dataAddr, _, err := c.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		c.Wait()
	})

	reports := make([]wire.RSSReport, links)
	for i := range reports {
		reports[i] = wire.RSSReport{LinkID: uint16(i), Seq: 1, Time: time.Now()}
		reports[i].SetRSS(-40 - float64(i))
	}
	conn, err := net.Dial("udp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.EncodeBatch(reports)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := c.Store.Stats(); st.FramesReceived == links {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Store.Stats(); st.FramesReceived != links || st.FramesDropped != 0 {
		t.Fatalf("stats after batch: %+v", st)
	}
	mu.Lock()
	if len(sunk) != links {
		mu.Unlock()
		t.Fatalf("sink saw %d reports, want %d", len(sunk), links)
	}
	for i, r := range sunk {
		if int(r.LinkID) != i || r.RSS() != -40-float64(i) {
			t.Errorf("sink report %d: %+v", i, r)
		}
	}
	mu.Unlock()

	// A batch whose second frame is corrupt: the corrupt frame costs
	// exactly one drop and the frames around it are salvaged.
	bad := wire.EncodeBatch(reports)
	bad[wire.FrameSize+4] ^= 0xFF
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		if st := c.Store.Stats(); st.FramesReceived == 2*links {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Store.Stats(); st.FramesReceived != 2*links || st.FramesDropped != 1 {
		t.Fatalf("stats after corrupt batch: %+v, want received=%d dropped=1", st, 2*links)
	}
	mu.Lock()
	if len(sunk) != 2*links-1 {
		t.Errorf("sink saw %d reports after corrupt batch, want %d", len(sunk), 2*links-1)
	}
	mu.Unlock()

	// A CRC-valid frame naming a link the collector does not have: the
	// store drops it and the sink never sees it, so the good frames
	// around it still travel as one batch.
	unknown := append([]wire.RSSReport{{LinkID: links, Seq: 2, Time: time.Now()}}, reports...)
	if _, err := conn.Write(wire.EncodeBatch(unknown)); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		if st := c.Store.Stats(); st.FramesReceived == 3*links+1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := c.Store.Stats()
	if st.FramesReceived != 3*links+1 || st.FramesDropped != 2 {
		t.Fatalf("stats after unknown-link batch: %+v, want received=%d dropped=2", st, 3*links+1)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := int(st.FramesReceived - st.FramesDropped); len(sunk) != want {
		t.Errorf("sink saw %d reports, want received-dropped = %d", len(sunk), want)
	}
	for _, r := range sunk {
		if int(r.LinkID) >= links {
			t.Errorf("sink saw a frame for unknown link %d", r.LinkID)
		}
	}
}
