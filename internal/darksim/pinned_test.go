package darksim

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"github.com/darkvec/darkvec/internal/trace"
)

// The byte pins below are amd64's, like the trainer's: the generator's float
// draws may round differently where the compiler fuses multiply-adds.
func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("trace bytes were recorded on amd64")
	}
}

// checkCSVSum fails unless tr's WriteCSV bytes hash to sha and it holds
// events events.
func checkCSVSum(t *testing.T, tr *trace.Trace, sha string, events int) {
	t.Helper()
	h := sha256.New()
	if err := tr.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sha || tr.Len() != events {
		t.Errorf("sha256 %s events %d, want %s / %d", got, tr.Len(), sha, events)
	}
}

// TestGenerateBytesPinned holds Generate to the CSV bytes it wrote at commit
// c38c91a, for the serve-wide benchmark shape and the package defaults. At
// ≈ 1.5 events/s timestamp ties are common, so an ordering that is not
// stable, or that breaks ties differently, moves these sums. The 30-day case
// (recorded at 29dc1c7) starts off midnight: it covers the longest span the
// generator orders over and the offset of every timestamp from Start.
func TestGenerateBytesPinned(t *testing.T) {
	skipUnlessAMD64(t)
	cases := []struct {
		name   string
		cfg    Config
		sha    string
		events int
	}{
		{"serve-wide", Config{Seed: 1, Days: 2, Scale: 0.1, Rate: 0.1}, "f40003a81824214dd3bfe01e63c1e34e4141a9be930db96158a1e7856ca46839", 260933},
		{"defaults", Config{Days: 2}, "306813c8ff820e053281eb57e16f773e003cabbbefe86db755736057c80a65ba", 132199},
		{"30-days-off-midnight", Config{Seed: 3, Days: 30, Start: 1614556800 + 12345, Scale: 0.02}, "77eea0946d216a6b2658f60e4936013b0e6d6cd76c8f24c3e5945bcfc0653a7d", 171322},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkCSVSum(t, Generate(tc.cfg).Trace, tc.sha, tc.events)
		})
	}
}

// TestAttackBytesPinned holds every adversarial overlay, at its default
// size, to the CSV bytes it wrote at commit 29dc1c7.
func TestAttackBytesPinned(t *testing.T) {
	skipUnlessAMD64(t)
	cases := []struct {
		kind   AttackKind
		sha    string
		events int
	}{
		{AttackSybil, "8842ff4f509b7702b5ef0190f9f30f0d168731093bf0a3cec20dbe8ca3ca26b7", 2400},
		{AttackMimicry, "1ff7555f7e7adae5614886d3ebf2904410f8d3c96538e24576aee762e33af5a0", 2400},
		{AttackJitter, "d1a5e74ee48fa7bc733e613b599948fdfd78d25fd61a12bcf12cb846ae917497", 2400},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			out, err := Attack(AttackConfig{Kind: tc.kind})
			if err != nil {
				t.Fatal(err)
			}
			checkCSVSum(t, out.Trace, tc.sha, tc.events)
		})
	}
}
