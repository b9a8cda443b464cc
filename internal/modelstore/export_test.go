package modelstore

import (
	"os"
	"path/filepath"
	"strings"
)

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// Versions lists the store's non-quarantined generations, newest first
// (without verifying them).
func (s *Store) Versions() ([]Version, error) {
	vs, _, err := s.versions()
	return vs, err
}

// Current reads the MANIFEST pointer. It is advisory only — Latest trusts
// checksums, not the manifest — but useful for operators and tests.
func (s *Store) Current() (Version, bool) {
	b, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "current "); ok {
			v, err := ParseVersion(strings.TrimSpace(rest))
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}
