package serve

import (
	"context"
	"errors"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/snap"
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
// A service has one snapshot store, Config.Store. Checkpoint and
// Restore persist and warm-start every zone through it, and the
// residency tier (residency.go) evicts and rehydrates zones through it
// — tiered storage and crash recovery share one format, one integrity
// check, one write rule and one copy of each zone's bytes.

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

// Checkpoint writes every registered zone into Config.Store under the
// residency write rule (residency.go): cold and clean zones are left as
// they are, and the cold tier is never rehydrated. Zones removed
// mid-walk are skipped; the first write error aborts the walk.
//
// The service owns the store's snapshot namespace: Checkpoint then
// prunes stored zones that are not registered, such as a removed zone
// whose best-effort delete in RemoveZone failed, or an entry that
// failed to restore, so neither resurrects on the next boot. Entries a
// backend cannot attribute to this service (foreign files in a shared
// directory, say) are never listed by the backend and thus never
// pruned. Without a store it fails with taflocerr.CodeUnsupported.
func (s *Service) Checkpoint() error {
	if err := s.needStore("checkpoint"); err != nil {
		return err
	}
	for _, id := range s.Zones() {
		z, ok := s.lookup(id)
		if !ok {
			continue // removed since Zones()
		}
		if err := s.checkpointZone(z); err != nil {
			return err
		}
	}
	stored, err := s.store.List()
	if err != nil {
		return err
	}
	for _, id := range stored {
		// Re-check liveness per entry rather than against the earlier
		// Zones() slice, so a zone added mid-checkpoint is never pruned.
		if _, live := s.lookup(id); !live {
			if err := s.store.Delete(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkpointZone writes z unless the store holds it, under resMu so an
// eviction cannot drop the System mid-export. A zone stopped since the
// caller's lookup (removed, or swapped out by UpdateZone) is skipped:
// its bytes would overwrite the snapshot of the zone now under its id.
func (s *Service) checkpointZone(z *zone) error {
	z.resMu.Lock()
	defer z.resMu.Unlock()
	sys := z.sys.Load()
	if z.isStopped() || z.storeHoldsLocked(sys) {
		return nil
	}
	return s.storeLocked(z, sys)
}

// Restore warm-starts every zone stored in Config.Store, in sorted
// order, and returns the IDs restored. Entries that fail to read,
// decode, or restore do not stop the others; their errors are joined
// into the returned error, so a boot can both serve the healthy zones
// and report the damaged entries. When the service runs a hot-zone cap,
// restored zones beyond it are evicted again as they register. Without
// a store it fails with taflocerr.CodeUnsupported.
func (s *Service) Restore() ([]string, error) {
	if err := s.needStore("restore"); err != nil {
		return nil, err
	}
	zones, err := s.store.List()
	if err != nil {
		return nil, err
	}
	var restored []string
	var errs []error
	for _, zoneID := range zones {
		sn, err := snap.ReadStore(s.store, zoneID)
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
// it runs Checkpoint, and when ctx is cancelled (service shutdown,
// SIGTERM) it runs one final Checkpoint before exiting, so the stored
// state is at most one interval old in a crash and fully current on a
// clean stop. Checkpoint errors are reported to onErr (may be nil) and
// do not stop the loop. The goroutine is counted in Wait. Without a
// store it fails with taflocerr.CodeUnsupported.
func (s *Service) StartCheckpointer(ctx context.Context, interval time.Duration, onErr func(error)) error {
	if err := s.needStore("checkpointer"); err != nil {
		return err
	}
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
				report(s.Checkpoint())
				return
			case <-ticker.C:
				report(s.Checkpoint())
			}
		}
	}()
	return nil
}
