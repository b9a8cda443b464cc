// Package ip2vec reimplements IP2VEC (Ring et al., Appendix A.2.2) as the
// paper's second comparison system. Instead of sequences, IP2VEC trains a
// skip-gram model over a custom flow-level context: for each flow it emits
// five (target, context) word pairs mixing source addresses, destination
// addresses, destination ports and protocols; source-address vectors are
// then used as the sender embedding.
package ip2vec

import (
	"sort"

	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// Config mirrors the IP2VEC setup.
type Config struct {
	Dim    int
	Epochs int
	Seed   uint64
}

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Pairs builds the IP2VEC training pairs from the trace, restricted to
// active senders (nil = all). The five pairs per flow follow Figure 17 of
// the paper:
//
//	(srcIP, dstIP), (srcIP, dstPort), (srcIP, proto),
//	(dstPort, dstIP), (proto, dstIP)
//
// Each pair becomes a two-word sentence for the skip-gram trainer, which is
// exactly "predict the context word from the target word".
func Pairs(tr *trace.Trace, active map[netutil.IPv4]bool) [][]string {
	out := make([][]string, 0, len(tr.Events)*5)
	for _, e := range tr.Events {
		if active != nil && !active[e.Src] {
			continue
		}
		src := "s:" + e.Src.String()
		dst := "d:" + e.Dst.String()
		port := "p:" + e.Key().String()
		proto := "t:" + e.Proto.String()
		out = append(out,
			[]string{src, dst},
			[]string{src, port},
			[]string{src, proto},
			[]string{port, dst},
			[]string{proto, dst},
		)
	}
	return out
}

// PairCount returns the number of (target, context) training pairs the
// IP2VEC construction yields per epoch — the Table 3 scalability metric.
// Negative sampling multiplies the effective training work further.
func PairCount(tr *trace.Trace, active map[netutil.IPv4]bool) int64 {
	if active == nil {
		return int64(len(tr.Events)) * 5
	}
	var n int64
	for _, e := range tr.Events {
		if active[e.Src] {
			n += 5
		}
	}
	return n
}

// Train runs IP2VEC and returns the sender embedding space (source-address
// vectors only).
func Train(tr *trace.Trace, active map[netutil.IPv4]bool, cfg Config) (*embed.Space, error) {
	cfg = cfg.withDefaults()
	model, err := w2v.Train(Pairs(tr, active), w2v.Config{
		Dim:    cfg.Dim,
		Window: 1, // a pair is a two-word sentence
		Epochs: cfg.Epochs,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	var words []string
	var vectors [][]float32
	all := model.Words()
	sort.Strings(all)
	for _, w := range all {
		if len(w) > 2 && w[:2] == "s:" {
			v, _ := model.Vector(w)
			words = append(words, w[2:])
			vectors = append(vectors, v)
		}
	}
	return embed.New(words, vectors)
}
