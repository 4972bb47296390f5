package store

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Dir is the local-directory backend: one "<escaped-id>.snap" file per
// zone, written atomically via a temporary file and rename — the layout
// every earlier state directory used, so one written by an older build
// restores through Dir unchanged. Zone IDs arrive over
// HTTP and may contain path separators; URL path-escaping keeps every
// zone inside the directory and the name mapping reversible.
type Dir struct {
	dir string
}

// NewDir opens a directory-backed store rooted at dir. The directory is
// created on first Put, not here, so pointing at a not-yet-existing
// state directory is not an error (a boot with no prior state restores
// nothing).
func NewDir(dir string) *Dir { return &Dir{dir: dir} }

// snapSuffix is the snapshot file extension. Files without it — and
// files whose stem does not unescape to a zone ID — are not this
// store's and are never listed or deleted.
const snapSuffix = ".snap"

// fileName maps a zone ID to its snapshot file name.
func fileName(zone string) string {
	return url.PathEscape(zone) + snapSuffix
}

// Put writes the snapshot atomically: temporary file in the same
// directory, sync, rename over the final path. A crash mid-write leaves
// the previous snapshot intact.
func (d *Dir) Put(zone string, data []byte) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(d.dir, fileName(zone))
	tmp, err := os.CreateTemp(d.dir, fileName(zone)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Get reads the snapshot for zone; a missing file reports ErrNotFound.
func (d *Dir) Get(zone string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, fileName(zone)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: zone %q", ErrNotFound, zone)
	}
	return data, err
}

// Delete removes the snapshot for zone; a missing file is not an error.
func (d *Dir) Delete(zone string) error {
	err := os.Remove(filepath.Join(d.dir, fileName(zone)))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// List returns the stored zone IDs, sorted. Files that are not this
// store's — wrong suffix, subdirectories, stems that fail to unescape,
// leftover temporaries — are skipped, so foreign files in a shared
// state directory are invisible rather than fatal. A missing directory
// lists nothing.
func (d *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var zones []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		zone, err := url.PathUnescape(strings.TrimSuffix(name, snapSuffix))
		if err != nil {
			continue
		}
		zones = append(zones, zone)
	}
	sort.Strings(zones)
	return zones, nil
}
