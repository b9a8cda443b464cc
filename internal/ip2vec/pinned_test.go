package ip2vec

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

// TestBaselinesBytesPinned holds IP2VEC to the space and pair count it
// produced on the string trainer, so moving it onto the encoded corpus
// cannot move Table 3. The constants are amd64's, like TestTrainBytesPinned.
func TestBaselinesBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("space bytes were recorded on amd64")
	}
	tr := darksim.Generate(darksim.Config{Seed: 7, Days: 3, Scale: 0.01, Rate: 0.05}).Trace
	active := tr.ActiveSenders(10)
	cases := []struct {
		name  string
		all   bool
		sha   string
		pairs int64
	}{
		{"active", false, "76b63b416cb12dcab195f7bc20d90b71713be4d79e7f1067c6db0fffc29d16a5", 64085},
		{"all", true, "f5e62643efcccc5a094b059c2e0f9e0725dbb10f0801195e8b9c8ff3f46d4694", 147640},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			act := active
			if tc.all {
				act = nil
			}
			space, err := Train(tr, act, Config{Dim: 16, Epochs: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			got, pairs := spaceSHA(space), PairCount(tr, act)
			if got != tc.sha || pairs != tc.pairs {
				t.Errorf("sha256 %s pairs %d (%d senders), want %s / %d", got, pairs, space.Len(), tc.sha, tc.pairs)
			}
		})
	}
}
