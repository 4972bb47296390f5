package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tafloc/internal/store"
)

// backends enumerates the production Store implementations; every
// conformance test below runs against each, so the two backends can
// never drift apart semantically.
func backends(t *testing.T) map[string]store.Store {
	t.Helper()
	return map[string]store.Store{
		"dir": store.NewDir(filepath.Join(t.TempDir(), "state")),
		"mem": store.NewMem(),
	}
}

func TestRoundTrip(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := st.Get("z"); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
			}
			want := []byte("snapshot-bytes-v1")
			if err := st.Put("z", want); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := st.Get("z")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Get = %q, want %q", got, want)
			}
			// Overwrite replaces.
			want2 := []byte("snapshot-bytes-v2")
			if err := st.Put("z", want2); err != nil {
				t.Fatalf("Put overwrite: %v", err)
			}
			if got, _ := st.Get("z"); !reflect.DeepEqual(got, want2) {
				t.Fatalf("Get after overwrite = %q, want %q", got, want2)
			}
		})
	}
}

// TestGetIsCallerCopy pins that mutating a Get result (or the buffer
// passed to Put) cannot corrupt the stored snapshot.
func TestGetIsCallerCopy(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			buf := []byte("pristine")
			if err := st.Put("z", buf); err != nil {
				t.Fatalf("Put: %v", err)
			}
			buf[0] = 'X' // caller reuses its buffer after Put
			got, err := st.Get("z")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			got[0] = 'Y' // caller scribbles on its copy
			again, _ := st.Get("z")
			if string(again) != "pristine" {
				t.Fatalf("stored snapshot corrupted to %q", again)
			}
		})
	}
}

func TestDeleteIdempotent(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Delete("never-stored"); err != nil {
				t.Fatalf("Delete of missing zone: %v", err)
			}
			if err := st.Put("z", []byte("x")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := st.Delete("z"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := st.Get("z"); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
			}
			if err := st.Delete("z"); err != nil {
				t.Fatalf("second Delete: %v", err)
			}
		})
	}
}

func TestListSortedAndHostile(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if zones, err := st.List(); err != nil || len(zones) != 0 {
				t.Fatalf("List on empty store = %v, %v", zones, err)
			}
			// Hostile IDs: path separators, dots, spaces — must round-trip
			// and never escape the store's namespace.
			ids := []string{"zone-b", "zone-a", "../escape", "with/slash", "dots..", "sp ace"}
			for _, id := range ids {
				if err := st.Put(id, []byte(id)); err != nil {
					t.Fatalf("Put(%q): %v", id, err)
				}
			}
			zones, err := st.List()
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			want := []string{"../escape", "dots..", "sp ace", "with/slash", "zone-a", "zone-b"}
			if !reflect.DeepEqual(zones, want) {
				t.Fatalf("List = %v, want %v", zones, want)
			}
			for _, id := range ids {
				got, err := st.Get(id)
				if err != nil || string(got) != id {
					t.Fatalf("Get(%q) = %q, %v", id, got, err)
				}
			}
		})
	}
}

// TestDirIgnoresForeignFiles pins that Dir only lists (and therefore
// only ever deletes) files it could have written itself.
func TestDirIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st := store.NewDir(dir)
	if err := st.Put("z", []byte("mine")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, name := range []string{"README.txt", "%zz-bad-escape.snap", "note.snap.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("foreign"), 0o644); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.snap"), 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	zones, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if !reflect.DeepEqual(zones, []string{"z"}) {
		t.Fatalf("List = %v, want [z]", zones)
	}
}

// TestDirOverwriteLeavesNoTempFile pins that an overwriting Put goes
// through the same temp-file-and-rename path as the first one and
// leaves nothing but the snapshot behind.
func TestDirOverwriteLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	st := store.NewDir(dir)
	for _, data := range []string{"v1", "v2"} {
		if err := st.Put("lobby", []byte(data)); err != nil {
			t.Fatalf("Put %s: %v", data, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "lobby.snap" {
		t.Errorf("directory holds %v after overwrite, want only lobby.snap", entries)
	}
	if got, err := st.Get("lobby"); err != nil || string(got) != "v2" {
		t.Errorf("Get after overwrite = %q, %v, want v2", got, err)
	}
}

// TestDirEscapesOutsideRoot pins that a traversal-shaped zone ID stays
// inside the store directory.
func TestDirEscapesOutsideRoot(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "state")
	st := store.NewDir(dir)
	if err := st.Put("../../victim", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "victim.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("zone ID escaped the store directory: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("store dir entries = %v, %v", entries, err)
	}
}

// TestDirMissingDirectory pins NewDir on a nonexistent path: List and
// Get behave as an empty store, and the directory appears on first Put.
func TestDirMissingDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does", "not", "exist")
	st := store.NewDir(dir)
	if zones, err := st.List(); err != nil || len(zones) != 0 {
		t.Fatalf("List = %v, %v", zones, err)
	}
	if _, err := st.Get("z"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	if err := st.Delete("z"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := st.Put("z", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if zones, _ := st.List(); !reflect.DeepEqual(zones, []string{"z"}) {
		t.Fatalf("List after Put = %v", zones)
	}
}
