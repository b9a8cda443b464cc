// Package modelstore is a crash-safe, versioned on-disk store for model
// artifacts — the publish/serve boundary of a continuously retraining
// darknet monitor. The daily retrain (§5, "DarkVec in practice") must never
// be able to take serving down: a publish that dies mid-write, a disk that
// flips a bit, or a daemon killed at any instant leaves the store serving
// the newest *intact* version.
//
// Layout of a store directory:
//
//	v000001.model           artifact: payload + CRC32C checksum footer
//	v000002.model           newer generation
//	v000002.model.corrupt   a quarantined artifact (never loaded again)
//	MANIFEST                advisory pointer to the current version
//	.tmp-*                  in-progress publishes (removed on Open)
//
// Every artifact is sealed with a robust checksum footer and published via
// write-to-temp → fsync → atomic rename, so a reader can never observe a
// half-written artifact under a versioned name. Verification happens on
// open: corrupt artifacts are renamed aside (quarantined) and the next
// older intact generation is served instead. The MANIFEST is advisory —
// recovery trusts only the checksums — so a crash between rename and
// manifest update loses nothing.
package modelstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/darkvec/darkvec/internal/robust"
)

const (
	artifactSuffix = ".model"
	corruptSuffix  = ".corrupt"
	manifestName   = "MANIFEST"
	tmpPrefix      = ".tmp-"
)

// Version numbers artifact generations; it formats as v000042.
type Version uint64

func (v Version) String() string { return fmt.Sprintf("v%06d", uint64(v)) }

// ParseVersion parses the v%06d form.
func ParseVersion(s string) (Version, error) {
	if !strings.HasPrefix(s, "v") {
		return 0, fmt.Errorf("modelstore: bad version %q", s)
	}
	n, err := strconv.ParseUint(s[1:], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("modelstore: bad version %q: %v", s, err)
	}
	return Version(n), nil
}

// ErrEmpty is returned when the store holds no intact artifact at all.
var ErrEmpty = errors.New("modelstore: no intact versions")

// Options configures a Store.
type Options struct {
	// Keep is how many intact generations survive pruning after a publish
	// (default 3; the current version is always kept). Quarantined
	// artifacts are not pruned — they are evidence.
	Keep int
	// Logf, when non-nil, narrates quarantines and pruning.
	Logf func(format string, args ...any)
}

// Store is a handle on a store directory. Safe for use by one process at a
// time (the intended deployment: one darkvecd owns one store).
type Store struct {
	dir  string
	keep int
	logf func(format string, args ...any)
}

// Open creates the directory if needed and sweeps debris from crashed
// publishes (.tmp-* files, which were never visible under a versioned
// name).
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("modelstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	keep := opts.Keep
	if keep <= 0 {
		keep = 3
	}
	s := &Store{dir: dir, keep: keep, logf: opts.Logf}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasPrefix(ent.Name(), tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, ent.Name()))
			s.log("removed interrupted publish %s", ent.Name())
		}
	}
	return s, nil
}

func (s *Store) log(format string, args ...any) {
	if s.logf != nil {
		s.logf("modelstore: "+format, args...)
	}
}

func (s *Store) path(v Version) string {
	return filepath.Join(s.dir, v.String()+artifactSuffix)
}

// versions lists non-quarantined artifact versions, newest first.
// maxSeen additionally folds in quarantined generations so a version
// number is never reused after its artifact was condemned.
func (s *Store) versions() (vs []Version, maxSeen Version, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("modelstore: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		quarantined := strings.HasSuffix(name, artifactSuffix+corruptSuffix)
		if !quarantined && !strings.HasSuffix(name, artifactSuffix) {
			continue
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, corruptSuffix), artifactSuffix)
		v, perr := ParseVersion(base)
		if perr != nil {
			continue // foreign file; leave it alone
		}
		if v > maxSeen {
			maxSeen = v
		}
		if !quarantined {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] > vs[j] })
	return vs, maxSeen, nil
}

// Publish writes a new generation: write calls back with the destination
// writer (already checksum-framed by the store), and the artifact becomes
// visible — atomically, under the next version number — only after the
// payload is fully written, footered and fsynced. On any error the
// temporary file is removed and the store is unchanged.
func (s *Store) Publish(write func(io.Writer) error) (Version, error) {
	_, maxSeen, err := s.versions()
	if err != nil {
		return 0, err
	}
	next := maxSeen + 1

	f, err := os.CreateTemp(s.dir, tmpPrefix)
	if err != nil {
		return 0, fmt.Errorf("modelstore: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) (Version, error) {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("modelstore: publish %s: %w", next, err)
	}
	bw := bufio.NewWriter(f)
	cw := robust.NewChecksumWriter(bw)
	if err := write(cw); err != nil {
		return fail(err)
	}
	if err := cw.WriteFooter(); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("modelstore: publish %s: %w", next, err)
	}
	if err := os.Rename(tmp, s.path(next)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("modelstore: publish %s: %w", next, err)
	}
	if err := syncDir(s.dir); err != nil {
		return 0, fmt.Errorf("modelstore: publish %s: %w", next, err)
	}
	if err := s.writeManifest(next); err != nil {
		s.log("manifest update failed (recovery scans checksums anyway): %v", err)
	}
	s.prune(next)
	s.log("published %s", next)
	return next, nil
}

// Latest returns the newest intact version, verifying checksums on the way
// down and quarantining every corrupt artifact it meets. ErrEmpty when
// nothing intact remains.
func (s *Store) Latest() (Version, error) {
	vs, _, err := s.versions()
	if err != nil {
		return 0, err
	}
	for _, v := range vs {
		if verr := s.verify(v); verr != nil {
			s.Quarantine(v, verr)
			continue
		}
		return v, nil
	}
	return 0, ErrEmpty
}

// Open verifies version v in full and returns a reader over its payload
// (the checksum footer is stripped). A corrupt artifact is quarantined and
// reported as an ErrChecksum-wrapping error.
func (s *Store) Open(v Version) (io.ReadCloser, error) {
	if err := s.verify(v); err != nil {
		s.Quarantine(v, err)
		return nil, err
	}
	f, err := os.Open(s.path(v))
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	return &payloadReader{
		Reader: io.LimitReader(bufio.NewReader(f), st.Size()-robust.FooterSize),
		f:      f,
	}, nil
}

// OpenLatest opens the newest intact version.
func (s *Store) OpenLatest() (io.ReadCloser, Version, error) {
	v, err := s.Latest()
	if err != nil {
		return nil, 0, err
	}
	rc, err := s.Open(v)
	if err != nil {
		// Lost a race with corruption between Latest and Open; recurse to
		// fall further back.
		return s.OpenLatest()
	}
	return rc, v, nil
}

type payloadReader struct {
	io.Reader
	f *os.File
}

func (p *payloadReader) Close() error { return p.f.Close() }

// verify checks version v's artifact end to end: footer present and
// well-formed, declared length consistent with the file size, CRC32C of
// the payload matching. Any failure wraps robust.ErrChecksum.
func (s *Store) verify(v Version) error {
	f, err := os.Open(s.path(v))
	if err != nil {
		return fmt.Errorf("modelstore: %s: %w", v, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("modelstore: %s: %w", v, err)
	}
	if st.Size() < robust.FooterSize {
		return fmt.Errorf("modelstore: %s: %w: file is %d bytes, smaller than the footer",
			v, robust.ErrChecksum, st.Size())
	}
	var footer [robust.FooterSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-robust.FooterSize); err != nil {
		return fmt.Errorf("modelstore: %s: reading footer: %w", v, err)
	}
	length, crc, err := robust.ParseFooter(footer[:])
	if err != nil {
		return fmt.Errorf("modelstore: %s: %w", v, err)
	}
	if length != uint64(st.Size()-robust.FooterSize) {
		return fmt.Errorf("modelstore: %s: %w: footer declares %d payload bytes, file has %d",
			v, robust.ErrChecksum, length, st.Size()-robust.FooterSize)
	}
	cr := robust.NewChecksumReader(io.LimitReader(bufio.NewReader(f), int64(length)))
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return fmt.Errorf("modelstore: %s: %w", v, err)
	}
	if _, got := cr.Sum(); got != crc {
		return fmt.Errorf("modelstore: %s: %w: CRC32C %08x, footer declares %08x",
			v, robust.ErrChecksum, got, crc)
	}
	return nil
}

// Quarantine renames version v's artifact aside so it is never considered
// again, keeping the bytes for post-mortem. Quarantined version numbers
// are not reused.
func (s *Store) Quarantine(v Version, reason error) {
	if err := os.Rename(s.path(v), s.path(v)+corruptSuffix); err != nil {
		s.log("quarantine of %s failed: %v", v, err)
		return
	}
	s.log("quarantined %s: %v", v, reason)
}

// prune removes intact generations beyond Keep, never touching current or
// quarantined artifacts.
func (s *Store) prune(current Version) {
	vs, _, err := s.versions()
	if err != nil {
		return
	}
	kept := 0
	for _, v := range vs {
		if v == current || kept < s.keep {
			kept++
			continue
		}
		if err := os.Remove(s.path(v)); err == nil {
			s.log("pruned %s", v)
		}
	}
}

// writeManifest atomically rewrites the advisory MANIFEST pointer.
func (s *Store) writeManifest(current Version) error {
	tmp := filepath.Join(s.dir, tmpPrefix+manifestName)
	body := fmt.Sprintf("darkvec-modelstore v1\ncurrent %s\n", current)
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a just-renamed artifact survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
