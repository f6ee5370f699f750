package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// manifestName is the store's root metadata file, rewritten atomically
// (tmp + rename) on registry-shape changes — synopsis add/replace/remove and
// compaction — never on per-mutation appends, which go to the delta logs.
const manifestName = "manifest.json"

// manifestVersion is the current (tenant-aware) layout. Version 1 — the
// pre-tenancy single-level layout — is still readable: Open migrates it in
// place (see migrateV1) and Fsck reports it as migratable.
const manifestVersion = 2

// DefaultTenant is the implicit tenant that owns every synopsis on an
// untenanted server and every pre-tenancy (layout v1) store entry.
const DefaultTenant = "default"

// Key builds the store/registry key for a (tenant, name) pair. The default
// tenant's key is the bare name, so a single-tenant deployment's keys are
// byte-identical to the pre-tenancy ones. Other tenants join with a NUL
// byte, which no valid synopsis name may contain (the API layer rejects
// it), so keys can never collide across tenants.
func Key(tenant, name string) string {
	if tenant == "" || tenant == DefaultTenant {
		return name
	}
	return tenant + "\x00" + name
}

// SplitKey inverts Key; a key without a NUL belongs to the default tenant.
func SplitKey(key string) (tenant, name string) {
	if i := strings.IndexByte(key, 0); i >= 0 {
		return key[:i], key[i+1:]
	}
	return DefaultTenant, key
}

// tenantDir maps a tenant ID onto its directory under <store>/synopses.
// Validated tenant IDs are filesystem-safe as-is; anything else (defense in
// depth against traversal or odd bytes) goes through the same sanitizer
// synopsis names use.
func tenantDir(tenant string) string {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if tenant[0] == '.' {
		return dirFor(tenant)
	}
	for i := 0; i < len(tenant); i++ {
		c := tenant[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return dirFor(tenant)
		}
	}
	return tenant
}

// Manifest is the durable registry: every synopsis the daemon must reload on
// start, with the snapshot sequence its files are named after.
type Manifest struct {
	Version  int                       `json:"version"`
	Synopses map[string]*ManifestEntry `json:"synopses"`
}

// ManifestEntry locates and describes one persisted synopsis.
type ManifestEntry struct {
	// Dir is the synopsis's directory under <store>/synopses, holding
	// base-<seq>.xsyn (a full snapshot in the versioned stream format) and
	// delta-<seq>.log (the append-only mutation log since that base). In
	// layout v2 it is the two-level "<tenant>/<sanitized>" relative path; in
	// a not-yet-migrated v1 manifest it is the single-level "<sanitized>".
	Dir string `json:"dir"`

	// Tenant and Name split the manifest key for non-default tenants (the
	// key itself joins them with a NUL). Both stay empty for the default
	// tenant, whose key is the bare synopsis name.
	Tenant string `json:"tenant,omitempty"`
	Name   string `json:"name,omitempty"`

	// Seq is the current snapshot sequence; compaction bumps it and retires
	// the previous base and log together.
	Seq uint64 `json:"seq"`

	Source  string    `json:"source"`
	Created time.Time `json:"created"`

	// Budget is the last SetBudget total applied when the base was written
	// (0 = never budgeted). Budget changes after the base are delta records.
	Budget int `json:"budget,omitempty"`

	// Ver is the synopsis's cache-scope version at the base; replayed delta
	// records each bump it by one, giving a durable monotonically-increasing
	// mutation count (diagnostic today — the estimate cache is per-process —
	// and the resume point if scope versions ever become externally visible).
	Ver uint64 `json:"ver,omitempty"`
}

func (m *Manifest) names() []string {
	out := make([]string, 0, len(m.Synopses))
	for n := range m.Synopses {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func readManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if m.Version != manifestVersion && m.Version != 1 {
		return nil, fmt.Errorf("store: manifest version %d (this build reads %d)", m.Version, manifestVersion)
	}
	if m.Synopses == nil {
		m.Synopses = make(map[string]*ManifestEntry)
	}
	// Recovery opens, truncates and deletes files under each entry's Dir,
	// so an entry must name a directory below synopses/.
	for _, key := range m.names() {
		me := m.Synopses[key]
		if me == nil {
			return nil, fmt.Errorf("store: manifest entry %q is null", key)
		}
		if d := filepath.FromSlash(me.Dir); !filepath.IsLocal(d) || filepath.Clean(d) == "." {
			return nil, fmt.Errorf("store: manifest entry %q: dir %q is not a directory below synopses/", key, me.Dir)
		}
	}
	return &m, nil
}

func writeManifest(dir string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, manifestName), append(b, '\n'))
}

// writeFileAtomic writes data to path via a same-directory temp file, fsyncs,
// and renames into place, so readers (and crash recovery) only ever see the
// old contents or the complete new contents.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a machine
// crash, not only a process crash. Filesystems that reject fsync on
// directories are tolerated — rename ordering is all they offer.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// dirFor maps an arbitrary synopsis name onto a filesystem-safe directory
// name: a sanitized prefix for readability plus an fnv hash for uniqueness.
// The manifest records the mapping, so it never has to be inverted.
func dirFor(name string) string {
	safe := make([]byte, 0, len(name))
	for i := 0; i < len(name) && len(safe) < 40; i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return fmt.Sprintf("%s-%08x", safe, h.Sum32())
}

func baseFile(seq uint64) string  { return fmt.Sprintf("base-%d.xsyn", seq) }
func deltaFile(seq uint64) string { return fmt.Sprintf("delta-%d.log", seq) }
