package serve

import (
	"fmt"
	"math"

	"tafloc/internal/core"
	"tafloc/internal/wire"
	"tafloc/taflocerr"
)

// Ingestor is the transport-agnostic ingestion surface of the serving
// layer. Every transport — in-process callers, the UDP collector sink
// (IngestSink), the per-request POST /v2/report handler, and the
// persistent NDJSON report stream — funnels into one Ingest
// implementation, so validation, bounded-queue load shedding, and the
// per-zone counters behave identically no matter how a report arrived.
// *Service implements it.
type Ingestor interface {
	// Ingest enqueues a batch of reports for a zone. On a nil return the
	// ingestor has taken ownership of the slice and the caller must not
	// reuse it; on any error the ingestor retains nothing and the caller
	// may retry with the same slice.
	Ingest(zone string, reports []Report) error
}

// Ingest is the shared ingestion path. A report addressing a link
// outside the zone's deployment rejects the whole batch with an error
// matching both ErrBadReport and taflocerr.ErrBadLink. A report whose
// RSS is NaN, infinite, or outside the int32 milli-dBm range a UDP
// frame can carry (about ±2.1e6 dBm) rejects the whole batch with a
// taflocerr.CodeBadRequest error: one such value would poison the
// zone's live window, which would publish non-finite positions until
// the sample aged out. When the zone's bounded queue is full the batch
// is shed and ErrQueueFull returned — ingestion never blocks the
// caller. A batch addressed to a cold zone (Model evicted to the
// snapshot store) rehydrates it first; a failed rehydrate rejects the
// batch with an error matching ErrRehydrate and
// taflocerr.ErrRehydrateFailed while the zone stays registered for
// retry. A stopped service rejects every non-empty batch with a
// taflocerr.CodeStarted error: no worker is left to fold it. Rejected
// and shed reports count into the zone's Dropped stat, accepted ones
// into Received, for every transport alike. An accepted batch arms the
// zone's fold round on the shared executor pool (a running service
// folds promptly; before Start the queue simply fills, and Start
// schedules the backlog).
func (s *Service) Ingest(id string, reports []Report) error {
	s.mu.RLock()
	z, ok := s.zones[id]
	ctx := s.runCtx
	stopped := s.stoppedLocked()
	s.mu.RUnlock()
	if !ok {
		return ErrUnknownZone
	}
	if len(reports) == 0 {
		return nil
	}
	if stopped != nil {
		z.dropped.Add(uint64(len(reports)))
		return stopped
	}
	m := len(z.win)
	for _, r := range reports {
		if r.Link < 0 || r.Link >= m {
			z.dropped.Add(uint64(len(reports)))
			return fmt.Errorf("%w: link %d of %d in zone %q", ErrBadReport, r.Link, m, id)
		}
		if math.IsNaN(r.RSS) || r.RSS < core.MinRSS || r.RSS > core.MaxRSS {
			z.dropped.Add(uint64(len(reports)))
			return taflocerr.Errorf(taflocerr.CodeBadRequest,
				"serve: report rss %v dBm on link %d outside [%v, %v] in zone %q", r.RSS, r.Link, core.MinRSS, core.MaxRSS, id)
		}
	}
	// A cold zone rehydrates here, before its reports enter the queue:
	// ingest is the residency tier's demand signal, and doing it on the
	// ingest path is what turns a failed rehydrate into a typed error
	// the reporter sees (matching ErrRehydrate /
	// taflocerr.ErrRehydrateFailed) instead of estimates silently never
	// arriving. The zone stays registered either way; the next batch
	// retries the store. Hot zones pay one atomic load and an LRU touch.
	if _, err := s.ensureHot(z); err != nil {
		z.dropped.Add(uint64(len(reports)))
		return err
	}
	running := s.started.Load() && ctx != nil && ctx.Err() == nil
	select {
	case z.queue <- reports:
		z.received.Add(uint64(len(reports)))
		if !running {
			// The run context was read before the enqueue; Start may have
			// completed in between, after scanning this zone's then-empty
			// backlog. Re-reading under the same mutex Start holds closes
			// the window: either this re-check observes the started
			// service and schedules, or Start's backlog scan (which runs
			// after this enqueue) does. Duplicate scheduling is harmless —
			// scheduleFold is idempotent while a fold is armed.
			s.mu.RLock()
			ctx = s.runCtx
			s.mu.RUnlock()
			running = s.started.Load() && ctx != nil && ctx.Err() == nil
		}
		if running {
			s.scheduleFold(z)
		}
		return nil
	default:
		z.dropped.Add(uint64(len(reports)))
		return ErrQueueFull
	}
}

// IngestSink adapts an Ingestor into a collector batch sink for one
// zone: wire it with Collector.SetBatchSink and every decoded UDP batch
// datagram flows through the shared ingest path. Shed or rejected
// batches are dropped silently here — the zone's counters carry the
// accounting, exactly as they do for HTTP ingest — because the sink
// runs on the collector's UDP read loop and must never block or fail
// it.
func IngestSink(ing Ingestor, zone string) func([]wire.RSSReport) {
	return func(frames []wire.RSSReport) {
		reports := make([]Report, len(frames))
		for i := range frames {
			reports[i] = FromWire(&frames[i])
		}
		_ = ing.Ingest(zone, reports)
	}
}
