// Package dante reimplements the DANTE methodology (Cohen et al., Appendix
// A.2.1) as the paper's first comparison system: destination ports are the
// words, each sender's port sequence is an independent "language", one
// Word2Vec model is trained per sender corpus, and the sender embedding is
// the average of the port vectors it targeted.
//
// DANTE's defining flaw — the skip-gram blow-up from treating every sender
// as a separate sequence corpus — is measured, not patched: SkipGramCount
// reports the pair count Table 3 shows, and Train refuses workloads past a
// budget instead of running for days.
package dante

import (
	"fmt"
	"sort"

	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// Config mirrors the DANTE paper's setup as described in Appendix A.2.1.
type Config struct {
	Dim    int // embedding dimension
	Window int // context window over port sequences
	Epochs int
	Seed   uint64
	// MaxSkipGrams aborts training when the corpus would exceed this many
	// skip-gram pairs (0 = unlimited). Table 3's "DANTE does not scale" row
	// is produced by this guard.
	MaxSkipGrams int64
}

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 50
	}
	if c.Window == 0 {
		c.Window = 25
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// portSequences builds each sender's arrival-ordered port sequence.
func portSequences(tr *trace.Trace, active map[netutil.IPv4]bool) map[netutil.IPv4][]trace.PortKey {
	seq := map[netutil.IPv4][]trace.PortKey{}
	for _, e := range tr.Events {
		if active != nil && !active[e.Src] {
			continue
		}
		seq[e.Src] = append(seq[e.Src], e.Key())
	}
	return seq
}

// language encodes one sender's port sequence as a corpus of its own: its
// distinct port words, their counts and the one sequence.
func language(ports []trace.PortKey) w2v.Encoded {
	enc := w2v.Encoded{Sequences: [][]int32{make([]int32, len(ports))}}
	ids := make(map[string]int32)
	for i, k := range ports {
		w := k.String()
		id, ok := ids[w]
		if !ok {
			id = int32(len(enc.Words))
			ids[w] = id
			enc.Words = append(enc.Words, w)
			enc.Counts = append(enc.Counts, 0)
		}
		enc.Counts[id]++
		enc.Sequences[0][i] = id
	}
	return enc
}

// SkipGramCount returns the number of training pairs DANTE's corpus
// construction yields on the trace: every sender is its own language, so
// each sender's per-epoch pairs accumulate across the whole population.
// This is the Table 3 blow-up metric.
func SkipGramCount(tr *trace.Trace, active map[netutil.IPv4]bool, window, epochs int) int64 {
	var tokens int64
	for _, e := range tr.Events {
		if active == nil || active[e.Src] {
			tokens++
		}
	}
	return tokens * int64(2*window) * int64(epochs) // padded windows, one language per sender
}

// ErrBudget is returned when the corpus exceeds Config.MaxSkipGrams.
type ErrBudget struct {
	Pairs, Budget int64
}

func (e *ErrBudget) Error() string {
	return fmt.Sprintf("dante: corpus yields %d skip-grams, over budget %d — DANTE does not scale to this trace", e.Pairs, e.Budget)
}

// Train runs the full DANTE pipeline and returns a sender embedding space:
// one Word2Vec model per sender language, sender vector = mean of its port
// vectors.
func Train(tr *trace.Trace, active map[netutil.IPv4]bool, cfg Config) (*embed.Space, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxSkipGrams > 0 {
		if pairs := SkipGramCount(tr, active, cfg.Window, cfg.Epochs); pairs > cfg.MaxSkipGrams {
			return nil, &ErrBudget{Pairs: pairs, Budget: cfg.MaxSkipGrams}
		}
	}
	seqs := portSequences(tr, active)
	senders := make([]netutil.IPv4, 0, len(seqs))
	for ip := range seqs {
		senders = append(senders, ip)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })

	words := make([]string, 0, len(senders))
	vectors := make([][]float32, 0, len(senders))
	for _, ip := range senders {
		enc := language(seqs[ip])
		m, err := w2v.TrainEncodedWithOptions(enc, w2v.Config{
			Dim:      cfg.Dim,
			Window:   cfg.Window,
			Epochs:   cfg.Epochs,
			Seed:     cfg.Seed,
			PadToken: "NULL",
		}, w2v.TrainOptions{})
		if err != nil {
			return nil, fmt.Errorf("dante: training language of %s: %w", ip, err)
		}
		// Sender vector: average of its port embeddings weighted by use.
		avg := make([]float32, cfg.Dim)
		for _, id := range enc.Sequences[0] {
			row := int(m.Perm[id]) * cfg.Dim
			for d := range avg {
				avg[d] += m.Syn0[row+d]
			}
		}
		inv := 1 / float32(len(seqs[ip]))
		for d := range avg {
			avg[d] *= inv
		}
		words = append(words, ip.String())
		vectors = append(vectors, avg)
	}
	return embed.New(words, vectors)
}
