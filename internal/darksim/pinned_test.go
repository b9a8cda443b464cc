package darksim

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestGenerateBytesPinned holds Generate to the CSV bytes it wrote at commit
// c38c91a, for the serve-wide benchmark shape and the package defaults. At
// ≈ 1.5 events/s timestamp ties are common, so a sort that is not stable,
// or that breaks ties differently, moves these sums. They are amd64's, like
// the trainer's pins: the generator's float draws may round differently
// where the compiler fuses multiply-adds.
func TestGenerateBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trace bytes were recorded on amd64")
	}
	cases := []struct {
		name   string
		cfg    Config
		sha    string
		events int
	}{
		{"serve-wide", Config{Seed: 1, Days: 2, Scale: 0.1, Rate: 0.1}, "f40003a81824214dd3bfe01e63c1e34e4141a9be930db96158a1e7856ca46839", 260933},
		{"defaults", Config{Days: 2}, "306813c8ff820e053281eb57e16f773e003cabbbefe86db755736057c80a65ba", 132199},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := Generate(tc.cfg).Trace
			h := sha256.New()
			if err := tr.WriteCSV(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha || tr.Len() != tc.events {
				t.Errorf("sha256 %s events %d, want %s / %d", got, tr.Len(), tc.sha, tc.events)
			}
		})
	}
}
