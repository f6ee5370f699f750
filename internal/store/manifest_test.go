package store

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// badManifests are manifests whose entries recovery must refuse: a null
// entry, an entry without a directory, and directories outside synopses/
// or synopses/ itself.
var badManifests = []struct{ name, json string }{
	{"null entry", `{"version":2,"synopses":{"x":null}}`},
	{"no dir", `{"version":2,"synopses":{"x":{"seq":1}}}`},
	{"escaping", `{"version":2,"synopses":{"x":{"dir":"../../outside","seq":1}}}`},
	{"absolute", `{"version":2,"synopses":{"x":{"dir":"/tmp/outside","seq":1}}}`},
	{"synopses/", `{"version":2,"synopses":{"x":{"dir":"default/..","seq":1}}}`},
	{"v1 escaping", `{"version":1,"synopses":{"x":{"dir":"..","seq":1}}}`},
}

// TestManifestRejectsBadEntries: Open and Fsck refuse a manifest with an
// entry that is null or whose directory is not below synopses/, with an
// error that names the entry, and create nothing outside the store.
func TestManifestRejectsBadEntries(t *testing.T) {
	for _, c := range badManifests {
		name, man := c.name, c.json
		root := t.TempDir()
		dir := filepath.Join(root, "a", "b", "store")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err == nil {
			st.Close()
			t.Errorf("%s: Open accepted %s", name, man)
		} else if !strings.Contains(err.Error(), `entry "x"`) {
			t.Errorf("%s: Open error %q does not name the entry", name, err)
		}
		if _, err := Fsck(dir); err == nil {
			t.Errorf("%s: Fsck accepted %s", name, man)
		}
		checkNothingOutside(t, root, dir)
	}
}

// checkNothingOutside fails the test for any file or directory under root
// that is neither inside dir nor one of dir's ancestors.
func checkNothingOutside(t *testing.T, root, dir string) {
	t.Helper()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		sep := string(filepath.Separator)
		if p != root && p != dir && !strings.HasPrefix(p, dir+sep) && !strings.HasPrefix(dir, p+sep) {
			t.Errorf("recovery created %s outside the store %s", p, dir)
		}
		return nil
	})
}

// copyTree copies the directories and regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzManifest: recovery trusts nothing in manifest.json. Whatever its
// bytes, Open, LoadAll, Close and Fsck on a store holding one real
// synopsis return without a panic, and no file appears outside the store.
func FuzzManifest(f *testing.F) {
	tmpl := f.TempDir()
	st, err := Open(tmpl, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.SaveBase("x", buildFig2(f), "fig2", time.Unix(0, 0), 0, 0); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(tmpl, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, c := range badManifests {
		f.Add([]byte(c.json))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "a", "b", "c", "d", "store")
		copyTree(t, tmpl, dir)
		if err := os.WriteFile(filepath.Join(dir, manifestName), in, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded := 0
		if st, err := Open(dir, Options{}); err == nil {
			l, _ := st.LoadAll()
			loaded = len(l)
			st.Close()
		}
		if bytes.Equal(in, valid) && loaded != 1 {
			t.Fatalf("the store's own manifest recovered %d synopses, want 1", loaded)
		}
		Fsck(dir)
		checkNothingOutside(t, root, dir)
	})
}
