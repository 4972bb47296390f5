package serve

import (
	"context"
	"errors"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/snap"
	"tafloc/internal/store"
	"tafloc/internal/track"
	"tafloc/taflocerr"
)

// Persistence: a calibrated zone exports as a versioned, CRC-checked
// binary snapshot (see internal/snap) and restores without any
// recalibration — no survey, no mask learning, no reference selection,
// no LoLi-IR. A restored zone publishes the same estimates the original
// would for the same report stream, and keeps the serving configuration
// (window, detector, threshold) it was captured under even when the
// restoring service was built with different defaults.
//
// Snapshots move through the internal/store.Store interface:
// CheckpointStore and RestoreStore persist and warm-start every zone,
// and the residency tier (residency.go) moves the same artifact through
// the same interface when it evicts and rehydrates zones — tiered
// storage and crash recovery share one format, one integrity check, and
// one store abstraction.

// SnapshotZone exports a zone's calibrated deployment as an encoded
// snapshot. The export is a consistent deep copy — the zone keeps
// serving while the bytes are written out. A cold zone is rehydrated
// first (an export wants the current Model, and touching a zone is
// exactly what makes it recently used).
func (s *Service) SnapshotZone(id string) ([]byte, error) {
	sn, err := s.snapshotZone(id)
	if err != nil {
		return nil, err
	}
	return snap.Encode(sn)
}

func (s *Service) snapshotZone(id string) (*snap.Snapshot, error) {
	z, ok := s.lookup(id)
	if !ok {
		return nil, ErrUnknownZone
	}
	sys, err := s.ensureHot(z)
	if err != nil {
		return nil, err
	}
	return s.buildSnapshot(z, sys), nil
}

// buildSnapshot captures a zone's persistent state over an explicit
// System: the calibrated state export plus the per-zone serving
// configuration and the live trajectory filter. Shared by the export,
// checkpoint, and eviction paths, so every snapshot the service writes
// has identical shape regardless of why it was written.
func (s *Service) buildSnapshot(z *zone, sys *core.System) *snap.Snapshot {
	history := z.zc.history
	if history == 0 {
		history = -1 // explicitly disabled — distinct from v1's "not recorded"
	}
	sn := &snap.Snapshot{
		Zone:    z.id,
		SavedAt: time.Now(),
		Config: snap.ZoneConfig{
			Window:            z.zc.window,
			DetectThresholdDB: z.zc.thrDB,
			Detector:          z.zc.detector,
			History:           history,
			Track:             z.zc.trk,
		},
		State: sys.ExportState(),
	}
	p := z.pub
	p.mu.Lock()
	if p.tracker != nil {
		ts := p.tracker.Export()
		sn.Track = &ts
	}
	p.mu.Unlock()
	return sn
}

// RestoreZone warm-starts a zone from an encoded snapshot: decode,
// validate, rebuild the core.System, and register it under the
// snapshot's zone ID with the snapshot's per-zone serving
// configuration. It returns the restored zone's ID. Corrupt or
// truncated snapshots fail closed with taflocerr.CodeSnapshotCorrupt
// (or CodeSnapshotVersion); an already-registered ID fails with
// ErrZoneExists, leaving the live zone untouched.
func (s *Service) RestoreZone(data []byte) (string, error) {
	sn, err := snap.Decode(data)
	if err != nil {
		return "", err
	}
	return s.restoreSnapshot(sn)
}

// maxRestoreWindow bounds the per-link window length a snapshot may
// request. Legitimate windows are single-digit to low hundreds; the cap
// keeps a crafted-but-CRC-valid snapshot from driving newZone into a
// huge (or impossible) per-link allocation.
const maxRestoreWindow = 1 << 16

// maxRestoreHistory likewise bounds the history/trajectory ring depth a
// snapshot may request.
const maxRestoreHistory = 1 << 20

func (s *Service) restoreSnapshot(sn *snap.Snapshot) (string, error) {
	if sn.Zone == "" {
		return "", taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "serve: snapshot has no zone id")
	}
	if sn.Config.Window > maxRestoreWindow {
		return "", taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"serve: snapshot window %d exceeds limit %d", sn.Config.Window, maxRestoreWindow)
	}
	if sn.Config.History > maxRestoreHistory {
		return "", taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"serve: snapshot history depth %d exceeds limit %d", sn.Config.History, maxRestoreHistory)
	}
	sys, err := core.RestoreSystem(sn.State)
	if err != nil {
		return "", err
	}
	window := sn.Config.Window
	if window < 1 {
		window = s.cfg.Window
	}
	detector := sn.Config.Detector
	if detector == "" {
		detector = s.cfg.Detector
	}
	// History semantics: positive = the captured depth, -1 = the zone had
	// tracking explicitly disabled, 0 = a version-1 snapshot that never
	// recorded it (the restoring service's default applies). Zero-valued
	// track options, likewise unrecorded, select the default filter.
	history := sn.Config.History
	switch {
	case history == 0:
		history = s.cfg.History
	case history < 0:
		history = 0
	}
	zc, err := newZoneConfig(window, sn.Config.DetectThresholdDB, detector, history, sn.Config.Track)
	if err != nil {
		// The snapshot names a detector, threshold or filter
		// configuration this build does not accept; that is a property
		// of the file, not of the request.
		return "", taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"serve: snapshot for zone %q: %w", sn.Zone, err)
	}
	var tracker *track.Tracker
	if sn.Track != nil && zc.history > 0 {
		tracker, err = track.NewTrackerFromState(*sn.Track)
		if err != nil {
			return "", taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
				"serve: snapshot for zone %q: tracker state: %w", sn.Zone, err)
		}
	}
	if err := s.addZone(sn.Zone, sys, zc, tracker); err != nil {
		return "", err
	}
	return sn.Zone, nil
}

// CheckpointStore snapshots every registered zone into dst. Hot zones
// export their live state; cold zones copy their already-current bytes
// straight from the residency store, so a checkpoint never rehydrates
// the cold tier (the whole point of which is not being resident). Into
// the residency store itself, a checkpoint skips cold and clean zones
// (see residency.go). Zones removed mid-walk are skipped. The first
// write error aborts the walk.
//
// The service owns the destination's snapshot namespace: after writing,
// CheckpointStore prunes stored zones that are no longer registered, so
// a zone removed at runtime stays removed across restarts instead of
// resurrecting from its stale snapshot on the next boot. Entries a
// backend cannot attribute to this service (foreign files in a shared
// directory, say) are never listed by the backend and thus never
// pruned.
func (s *Service) CheckpointStore(dst store.Store) error {
	for _, id := range s.Zones() {
		z, ok := s.lookup(id)
		if !ok {
			continue // removed since Zones()
		}
		// Hold resMu across the copy-or-export decision so a concurrent
		// eviction cannot drop the System between the load and the
		// export, nor a rehydrate race the cold-bytes copy.
		z.resMu.Lock()
		var err error
		sys := z.sys.Load()
		switch {
		case dst == s.store:
			if !z.storeHoldsLocked(sys) {
				err = s.storeLocked(z, sys)
			}
		case sys != nil:
			err = snap.WriteStore(dst, s.buildSnapshot(z, sys))
		default:
			var data []byte
			if data, err = s.store.Get(id); err == nil {
				err = dst.Put(id, data)
			}
		}
		z.resMu.Unlock()
		if err != nil {
			return err
		}
	}
	stored, err := dst.List()
	if err != nil {
		return err
	}
	for _, id := range stored {
		// Re-check liveness per entry rather than against the earlier
		// Zones() slice, so a zone added mid-checkpoint is never pruned.
		if _, live := s.lookup(id); !live {
			if err := dst.Delete(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreStore warm-starts every zone stored in src, in sorted order,
// and returns the IDs restored. Entries that fail to read, decode, or
// restore do not stop the others; their errors are joined into the
// returned error, so a boot can both serve the healthy zones and report
// the damaged entries. When the service runs a hot-zone cap, restored
// zones beyond it are evicted again as they register — a node can boot
// a store holding far more zones than fit in memory.
func (s *Service) RestoreStore(src store.Store) ([]string, error) {
	zones, err := src.List()
	if err != nil {
		return nil, err
	}
	var restored []string
	var errs []error
	for _, zoneID := range zones {
		sn, err := snap.ReadStore(src, zoneID)
		if err != nil {
			errs = append(errs, taflocerr.Errorf(taflocerr.CodeOf(err), "serve: restore %q: %w", zoneID, err))
			continue
		}
		id, err := s.restoreSnapshot(sn)
		if err != nil {
			errs = append(errs, taflocerr.Errorf(taflocerr.CodeOf(err), "serve: restore %q: %w", zoneID, err))
			continue
		}
		restored = append(restored, id)
	}
	return restored, errors.Join(errs...)
}

// StartCheckpointer runs a background checkpoint loop: every interval
// it writes all zones to dst (see CheckpointStore), and when ctx is
// cancelled (service shutdown, SIGTERM) it writes one final checkpoint
// before exiting, so the stored state is at most one interval old in a
// crash and fully current on a clean stop. Pass the residency store
// itself (Config.Store) to checkpoint into it: cold and clean zones
// (see CheckpointStore) are then left as they are instead of being
// rewritten every interval.
// Checkpoint errors are reported to onErr (may be nil) and do not stop
// the loop. The goroutine is counted in Wait.
func (s *Service) StartCheckpointer(ctx context.Context, dst store.Store, interval time.Duration, onErr func(error)) error {
	if interval <= 0 {
		return taflocerr.Errorf(taflocerr.CodeBadRequest,
			"serve: checkpoint interval must be positive, got %v", interval)
	}
	report := func(err error) {
		if err != nil && onErr != nil {
			onErr(err)
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				report(s.CheckpointStore(dst))
				return
			case <-ticker.C:
				report(s.CheckpointStore(dst))
			}
		}
	}()
	return nil
}
