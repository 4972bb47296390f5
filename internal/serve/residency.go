package serve

// Tiered zone storage: the residency tier over the service's one
// snapshot store, Config.Store. A registered zone is either hot (its
// core.System and immutable Model are resident) or cold (the System
// pointer is nil and the zone's calibrated state lives only as a
// snapshot in the store). Everything else a zone owns — ingest queue,
// fold windows, counters, trajectory state — stays resident across
// eviction, which is why an evicted-and-rehydrated zone publishes
// bit-identical estimates to one that was never evicted: eviction
// removes exactly the state that ExportState/RestoreSystem round-trips
// losslessly, and nothing more.
//
// What an eviction frees depends on the store. A snapshot holds the
// same float64 matrices as the System and its Model, so a store that
// keeps its bytes on the heap (store.Mem) frees next to nothing, while
// one that keeps them off the heap (store.Dir) frees most of the zone:
// BenchmarkZoneFootprint in the root package measures both.
//
// Transitions are guarded by the per-zone resMu. In-flight fold and
// locate tasks are never quiesced for an eviction: each task carries
// the *core.System it resolved at fold time, and a System's read plane
// is immutable, so a task races an eviction only in the harmless sense
// of finishing against a Model whose zone has since gone cold. The LRU
// is approximate by design — a per-zone logical timestamp bumped on
// every touch, scanned only when the service is over cap — so the
// publish hot path pays one atomic store, never an ordering structure.
// The scan covers the hot set (Service.hot), the zones that hold a
// System, so it costs O(MaxHotZones) however many zones are cold.
//
// A clean zone is not rewritten. The store keeps what it was last given
// until the service deletes the zone, and a zone without a trajectory
// filter changes its persistent state only when its System installs a
// new Model. So a hot zone records in zone.held the core.Stamp of the
// Model whose state the store last read (a rehydrate) or wrote (an
// eviction or a checkpoint). A zone is clean when it has no trajectory
// filter and its System still serves the recorded Model: evicting it
// drops the System with no export, encode or Put, and a checkpoint
// skips it as it skips cold zones. A zone with a filter is written
// every time, since the filter may have folded a fix. The record is a
// number, not a Model, so it keeps no superseded Model reachable.

import (
	"slices"

	"tafloc/internal/core"
	"tafloc/internal/snap"
	"tafloc/taflocerr"
)

// touch bumps the zone's LRU timestamp: one atomic add and one store,
// cheap enough for every ingest, publish, and read that should count as
// recent use.
func (s *Service) touch(z *zone) {
	z.lastTouch.Store(s.lruClock.Add(1))
}

// ensureHot returns the zone's resident System, rehydrating it from the
// snapshot store first when the zone is cold. Rehydration is
// single-flight per zone (resMu); a failure counts into the zone's
// RehydrateErrors, surfaces as a taflocerr.CodeRehydrateFailed error,
// and leaves the zone registered and cold — the next call retries from
// scratch, so a store that heals heals the zone.
func (s *Service) ensureHot(z *zone) (*core.System, error) {
	s.touch(z)
	if sys := z.sys.Load(); sys != nil {
		return sys, nil
	}
	z.resMu.Lock()
	sys, err := s.rehydrateLocked(z)
	z.resMu.Unlock()
	if err != nil {
		return nil, err
	}
	// The rehydrate may have pushed the service over its hot cap; evict
	// the coldest zone(s) outside resMu (eviction takes the victim's).
	s.enforceCap()
	return sys, nil
}

// rehydrateLocked restores the zone's System from the store. Caller
// holds z.resMu.
func (s *Service) rehydrateLocked(z *zone) (*core.System, error) {
	if sys := z.sys.Load(); sys != nil {
		return sys, nil // lost the race to another rehydrator: done
	}
	if z.isStopped() {
		// Removed (or mid-swap) while we held a stale reference; the zone
		// will not serve again under this shard object.
		return nil, ErrUnknownZone
	}
	fail := func(err error) (*core.System, error) {
		z.cnt.rehydrateErrors.Add(1)
		return nil, taflocerr.Errorf(taflocerr.CodeRehydrateFailed,
			"serve: rehydrate zone %q: %w", z.id, err)
	}
	sn, err := snap.ReadStore(s.store, z.id)
	if err != nil {
		return fail(err)
	}
	sys, err := core.RestoreSystem(sn.State)
	if err != nil {
		return fail(err)
	}
	if m := sys.Layout().M(); m != len(z.win) {
		// The zone's resident ingest state was sized for its deployment;
		// a snapshot with a different link count is not this zone's.
		return fail(taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"stored snapshot has %d links, zone has %d", m, len(z.win)))
	}
	z.sys.Store(sys)
	z.held = core.Stamp(sys.Model())
	s.hotAdd(z)
	z.cnt.rehydrates.Add(1)
	return sys, nil
}

// evictZone demotes a zone to cold: write its snapshot into the store
// unless the zone is clean (see above), then drop the
// System. The write gates the drop: on a store failure the zone stays
// hot (EvictErrors counts it) and keeps serving, so a dirty zone costs
// memory headroom, never availability, while the store is broken. A
// clean zone needs no write, so it goes cold even then, and its next
// request fails with rehydrate_failed until the store heals. Either way
// the System is dropped only while it serves the recorded Model: one
// installed by a concurrent UpdateContext or Reselect aborts the
// eviction (the zone stays hot and a later pass re-evicts).
func (s *Service) evictZone(z *zone) error {
	z.resMu.Lock()
	defer z.resMu.Unlock()
	if z.isStopped() {
		// Being removed or swapped: nothing to demote. Leaving the hot
		// set keeps enforceCap from picking it again.
		s.hotDrop(z)
		return nil
	}
	sys := z.sys.Load()
	if sys == nil {
		return nil // already cold
	}
	if !z.storeHoldsLocked(sys) {
		if err := s.storeLocked(z, sys); err != nil {
			z.cnt.evictErrors.Add(1)
			return taflocerr.Errorf(taflocerr.CodeOf(err),
				"serve: evict zone %q: %w", z.id, err)
		}
	}
	if core.Stamp(sys.Model()) != z.held {
		return taflocerr.Errorf(taflocerr.CodeInternal,
			"serve: zone %q model updated during eviction; zone stays hot", z.id)
	}
	z.sys.Store(nil)
	z.held = 0
	s.hotDrop(z)
	z.cnt.evictions.Add(1)
	return nil
}

// storeHoldsLocked reports whether the store already holds the zone's
// persistent state: the zone is cold (sys is nil), or it is clean.
// Caller holds z.resMu.
func (z *zone) storeHoldsLocked(sys *core.System) bool {
	return sys == nil || z.pub.tracker == nil && core.Stamp(sys.Model()) == z.held
}

// storeLocked writes the zone's snapshot into the store and records the
// Model the written bytes came from: ExportState reads the Model
// itself, so the record names it only when it is still current after
// the write. Caller holds z.resMu.
func (s *Service) storeLocked(z *zone, sys *core.System) error {
	model := sys.Model()
	sn := s.buildSnapshot(z, sys)
	z.held = 0 // the store's bytes are unknown until the write succeeds
	if err := snap.WriteStore(s.store, sn); err != nil {
		return err
	}
	if sys.Model() == model { //tafloc:reload deliberate staleness re-check: a Model installed during the export or write means the stored bytes may not be this Model's
		z.held = core.Stamp(model)
	}
	return nil
}

// enforceCap evicts least-recently-touched zones until the hot set is
// back within Config.MaxHotZones. It runs off the publish and rehydrate
// paths and after every registration. Each step picks its victim in one
// hotMu critical section, and only while the set is over the cap, so an
// under-cap service pays one uncontended lock; over the cap the pick
// scans the set (O(MaxHotZones)). It never spins: each victim is
// evicted, or leaves the set because it is stopped, or its eviction
// failure ends the pass — the next publish retries — so a wedged store
// cannot spin a worker either.
func (s *Service) enforceCap() {
	if s.cfg.MaxHotZones <= 0 {
		return
	}
	for {
		v := s.overCapVictim()
		if v == nil {
			return
		}
		if err := s.evictZone(v); err != nil {
			return
		}
	}
}

// overCapVictim returns the hot zone with the oldest LRU timestamp while
// the hot set is larger than the cap, and nil once it is not.
func (s *Service) overCapVictim() *zone {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	if len(s.hot) <= s.cfg.MaxHotZones {
		return nil
	}
	var best *zone
	var bestTouch int64
	for _, z := range s.hot {
		if t := z.lastTouch.Load(); best == nil || t < bestTouch {
			best, bestTouch = z, t
		}
	}
	return best
}

// hotAdd puts z in the hot set. Callers add a zone only in the step
// that gives it a System, so it is never in the set twice.
func (s *Service) hotAdd(z *zone) {
	s.hotMu.Lock()
	s.hot = append(s.hot, z)
	s.hotMu.Unlock()
}

// hotDrop takes z out of the hot set, if it is there.
func (s *Service) hotDrop(z *zone) {
	s.hotMu.Lock()
	if i := slices.Index(s.hot, z); i >= 0 {
		last := len(s.hot) - 1
		s.hot[i] = s.hot[last]
		s.hot[last] = nil
		s.hot = s.hot[:last]
	}
	s.hotMu.Unlock()
}

// HotZones reports how many registered zones currently hold a resident
// Model: the size of the hot set.
func (s *Service) HotZones() int {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	return len(s.hot)
}

// EvictZone forces a zone cold right now, regardless of the LRU order
// or the hot cap: checkpoint to the snapshot store unless the store
// already holds the zone's current state, then drop the resident Model.
// The zone stays registered and rehydrates on its next Ingest (or the
// fold round it starts), System, snapshot export or RehydrateZone;
// Position, Watch, Track and History never rehydrate. It fails with
// taflocerr.CodeUnsupported when the service has no snapshot store, and
// with the store's error (zone left hot) when the checkpoint write
// fails.
func (s *Service) EvictZone(id string) error {
	if err := s.needStore("evict"); err != nil {
		return err
	}
	z, ok := s.lookup(id)
	if !ok {
		return ErrUnknownZone
	}
	return s.evictZone(z)
}

// needStore refuses op with taflocerr.CodeUnsupported when the service
// has no snapshot store.
func (s *Service) needStore(op string) error {
	if s.store == nil {
		return taflocerr.Errorf(taflocerr.CodeUnsupported,
			"serve: %s: no snapshot store configured; set Config.Store", op)
	}
	return nil
}

// RehydrateZone forces a cold zone hot right now (a no-op on a hot
// one): the warm-up counterpart of EvictZone, for operators who want a
// zone resident before its first request.
func (s *Service) RehydrateZone(id string) error {
	z, ok := s.lookup(id)
	if !ok {
		return ErrUnknownZone
	}
	_, err := s.ensureHot(z)
	return err
}
