// Package store is the snapshot-store abstraction behind tiered zone
// storage: a small keyed blob interface over which the serving layer
// checkpoints, evicts, and rehydrates zone snapshots without caring
// where the bytes live. Two backends ship with it — Dir, an
// atomic-rename local directory (the -state-dir of cmd/tafloc-serve),
// and Mem, an in-process map that saves no memory — and storetest adds
// a deterministic fault-injecting wrapper for pinning the degradation
// contract.
//
// The interface is deliberately byte-oriented: the snapshot codec
// (internal/snap) owns versioning and integrity, so a Store never
// inspects payloads and any backend that can round-trip opaque bytes
// under a zone ID qualifies. Keys are raw zone IDs; backends that need
// filesystem-safe names escape internally and keep the mapping
// reversible.
package store

import "errors"

// ErrNotFound reports that a store holds no snapshot for the requested
// zone. Backends return it (possibly wrapped) from Get so callers can
// distinguish "never stored" from an I/O failure with errors.Is.
var ErrNotFound = errors.New("store: snapshot not found")

// Store is a keyed snapshot store. Implementations must be safe for
// concurrent use: the serving layer calls into one store from executor
// workers, the checkpointer goroutine, and request handlers at once.
type Store interface {
	// Put durably stores data as the snapshot for zone, replacing any
	// previous one. Implementations must replace atomically — a reader
	// racing a Put sees either the old snapshot or the new one, never a
	// torn mix.
	Put(zone string, data []byte) error
	// Get returns the stored snapshot for zone, or an error matching
	// ErrNotFound when none exists. The returned slice is the caller's
	// own copy.
	Get(zone string) ([]byte, error)
	// Delete removes the snapshot for zone. Deleting a zone that has no
	// snapshot is not an error — Delete is how removal is made durable,
	// and removal must be idempotent.
	Delete(zone string) error
	// List returns the IDs of every stored zone, sorted.
	List() ([]string, error)
}
