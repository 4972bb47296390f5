package store

import (
	"fmt"
	"sort"
	"sync"
)

// Mem is the in-memory backend: a mutex-guarded map, for tests. A
// snapshot holds the same matrices as its Model, so evicting into Mem
// frees next to nothing. Snapshots are copied on both Put and Get, so
// callers can never alias the store's internal buffers.
type Mem struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Put stores a private copy of data under zone.
func (s *Mem) Put(zone string, data []byte) error {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.m[zone] = cp
	s.mu.Unlock()
	return nil
}

// Get returns a copy of the stored snapshot, or ErrNotFound.
func (s *Mem) Get(zone string) ([]byte, error) {
	s.mu.Lock()
	data, ok := s.m[zone]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: zone %q", ErrNotFound, zone)
	}
	return append([]byte(nil), data...), nil
}

// Delete removes the snapshot for zone; missing zones are not an error.
func (s *Mem) Delete(zone string) error {
	s.mu.Lock()
	delete(s.m, zone)
	s.mu.Unlock()
	return nil
}

// List returns the stored zone IDs, sorted.
func (s *Mem) List() ([]string, error) {
	s.mu.Lock()
	zones := make([]string, 0, len(s.m))
	for z := range s.m {
		zones = append(zones, z)
	}
	s.mu.Unlock()
	sort.Strings(zones)
	return zones, nil
}
