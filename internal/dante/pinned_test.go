package dante

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/embed"
)

// spaceSHA hashes a space's words and the bits of its rows, in row order.
func spaceSHA(s *embed.Space) string {
	h := sha256.New()
	var b [4]byte
	for i, w := range s.Words {
		h.Write([]byte(w))
		h.Write([]byte{0})
		for _, x := range s.Row(i) {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBaselinesBytesPinned holds DANTE to the space and skip-gram count it
// produced on the string trainer, so moving it onto the encoded corpus
// cannot move Table 3. The constants are amd64's, like TestTrainBytesPinned.
func TestBaselinesBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("space bytes were recorded on amd64")
	}
	tr := darksim.Generate(darksim.Config{Seed: 7, Days: 3, Scale: 0.01, Rate: 0.05}).Trace
	active := tr.ActiveSenders(10)
	cfg := Config{Dim: 16, Window: 5, Epochs: 2, Seed: 3}
	cases := []struct {
		name  string
		all   bool
		sha   string
		pairs int64
	}{
		{"active", false, "f5a254c99da7828416a82e4a22be543ece78ad4bba200781f824da95c30679e2", 256340},
		{"all", true, "a331d08973a45aeb2daa60bdb1a610d98e06cb55c39139de7f03a1f9decacd13", 590560},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			act := active
			if tc.all {
				act = nil
			}
			space, err := Train(tr, act, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, pairs := spaceSHA(space), SkipGramCount(tr, act, cfg.Window, cfg.Epochs)
			if got != tc.sha || pairs != tc.pairs {
				t.Errorf("sha256 %s skip-grams %d (%d senders), want %s / %d", got, pairs, space.Len(), tc.sha, tc.pairs)
			}
		})
	}
}
