package collector

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"

	"tafloc/internal/wire"
)

// Collector receives RSS report frames over UDP and serves a TCP control
// plane for survey orchestration. Create with New, start with Start, stop
// by cancelling the context; Wait blocks until both loops exit.
type Collector struct {
	Store *Store

	log       *slog.Logger
	batchSink func([]wire.RSSReport)
	udpConn   *net.UDPConn
	tcpLis    net.Listener
	wg        sync.WaitGroup
	cancelMu  sync.Mutex
	cancel    context.CancelFunc
}

// New builds a collector for m links. The second parameter is ignored:
// it was the length of a live window the collector no longer keeps (the
// serving layer windows the frames it is forwarded), and it stays only
// so that existing callers such as perfbench keep building.
func New(m, _ int, log *slog.Logger) (*Collector, error) {
	store, err := NewStore(m)
	if err != nil {
		return nil, err
	}
	if log == nil {
		log = slog.Default()
	}
	return &Collector{Store: store, log: log}, nil
}

// SetBatchSink registers fn to receive, in addition to the store, each
// datagram's kept frames as one slice: the frames that decoded and
// that the store accepted. It is the hook that forwards measurements
// into the multi-zone serving layer, made to pair with serve.IngestSink
// so a whole UDP batch datagram travels the serving layer's shared
// ingest path as one batch. It must be called before Start. The slice
// is reused between datagrams: fn must not retain it past the call. fn
// runs on the UDP read loop, so it must be fast and non-blocking.
func (c *Collector) SetBatchSink(fn func([]wire.RSSReport)) { c.batchSink = fn }

// Start binds the UDP data plane and TCP control plane on the given
// addresses ("127.0.0.1:0" picks free ports) and launches the serving
// loops. It returns the bound addresses.
func (c *Collector) Start(ctx context.Context, udpAddr, tcpAddr string) (dataAddr, ctrlAddr string, err error) {
	ua, err := net.ResolveUDPAddr("udp", udpAddr)
	if err != nil {
		return "", "", fmt.Errorf("collector: resolve udp: %w", err)
	}
	c.udpConn, err = net.ListenUDP("udp", ua)
	if err != nil {
		return "", "", fmt.Errorf("collector: listen udp: %w", err)
	}
	c.tcpLis, err = net.Listen("tcp", tcpAddr)
	if err != nil {
		c.udpConn.Close()
		return "", "", fmt.Errorf("collector: listen tcp: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	c.cancelMu.Lock()
	c.cancel = cancel
	c.cancelMu.Unlock()

	c.wg.Add(3)
	go c.serveUDP()
	go c.serveTCP()
	go func() {
		defer c.wg.Done()
		<-ctx.Done()
		c.udpConn.Close()
		c.tcpLis.Close()
	}()
	return c.udpConn.LocalAddr().String(), c.tcpLis.Addr().String(), nil
}

// Stop cancels the serving loops.
func (c *Collector) Stop() {
	c.cancelMu.Lock()
	if c.cancel != nil {
		c.cancel()
	}
	c.cancelMu.Unlock()
}

// Wait blocks until the serving loops exit.
func (c *Collector) Wait() { c.wg.Wait() }

func (c *Collector) serveUDP() {
	defer c.wg.Done()
	buf := make([]byte, 65536)
	var frames []wire.RSSReport // per-datagram batch, reused across reads
	for {
		n, _, err := c.udpConn.ReadFromUDP(buf)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				c.log.Error("collector: udp read", "err", err)
			}
			return
		}
		// A datagram carries one frame or a whole concatenated batch
		// (wire.EncodeBatch); a corrupt frame costs exactly one frame,
		// and so does a frame the store drops (an unknown link): only
		// kept frames reach the sink.
		var bad int
		frames, bad = wire.DecodeBatch(frames[:0], buf[:n])
		for ; bad > 0; bad-- {
			c.Store.MarkDropped()
		}
		kept := frames[:0]
		for i := range frames {
			if c.Store.AddReport(&frames[i]) {
				kept = append(kept, frames[i])
			}
		}
		if c.batchSink != nil && len(kept) > 0 {
			c.batchSink(kept)
		}
	}
}

func (c *Collector) serveTCP() {
	defer c.wg.Done()
	for {
		conn, err := c.tcpLis.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				c.log.Error("collector: tcp accept", "err", err)
			}
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			c.handleControl(conn)
		}()
	}
}

// handleControl runs one control session: each request receives an Ack
// (or Error) reply; EndPass results are reported through the snapshot
// flow by the orchestrator reading the store directly, keeping the
// control protocol minimal.
func (c *Collector) handleControl(conn net.Conn) {
	cc := wire.NewControlConn(conn)
	for {
		msg, err := cc.Recv()
		if err != nil {
			return // peer closed or broken stream
		}
		switch msg.Type {
		case wire.MsgStartSurvey:
			c.Store.BeginSurvey(msg.Cell)
			err = cc.Send(wire.ControlMessage{Type: wire.MsgAck})
		case wire.MsgStopSurvey:
			c.Store.EndPass()
			err = cc.Send(wire.ControlMessage{Type: wire.MsgAck})
		case wire.MsgVacantCapture:
			c.Store.BeginVacant()
			err = cc.Send(wire.ControlMessage{Type: wire.MsgAck})
		case wire.MsgSnapshot:
			stats := c.Store.Stats()
			err = cc.Send(wire.ControlMessage{
				Type:   wire.MsgAck,
				Detail: fmt.Sprintf("received=%d dropped=%d", stats.FramesReceived, stats.FramesDropped),
			})
		default:
			err = cc.Send(wire.ControlMessage{
				Type:   wire.MsgError,
				Detail: fmt.Sprintf("unknown message type %q", msg.Type),
			})
		}
		if err != nil {
			c.log.Error("collector: control send", "err", err)
			return
		}
	}
}
