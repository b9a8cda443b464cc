// Package ip2vec reimplements IP2VEC (Ring et al., Appendix A.2.2) as the
// paper's second comparison system. Instead of sequences, IP2VEC trains a
// skip-gram model over a custom flow-level context: for each flow it emits
// five (target, context) word pairs mixing source addresses, destination
// addresses, destination ports and protocols; source-address vectors are
// then used as the sender embedding.
package ip2vec

import (
	"sort"
	"strings"

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

// pairs builds the IP2VEC training corpus from the trace, restricted to
// active senders (nil = all). The five pairs per flow follow Figure 17 of
// the paper:
//
//	(srcIP, dstIP), (srcIP, dstPort), (srcIP, proto),
//	(dstPort, dstIP), (proto, dstIP)
//
// Each pair becomes a two-token sequence for the skip-gram trainer, which
// is exactly "predict the context word from the target word". The words
// ("s:", "d:", "p:" and "t:" plus the value) share one id table.
func pairs(tr *trace.Trace, active map[netutil.IPv4]bool) w2v.Encoded {
	var enc w2v.Encoded
	ids := make(map[string]int32)
	intern := func(w string) int32 {
		id, ok := ids[w]
		if !ok {
			id = int32(len(enc.Words))
			ids[w] = id
			enc.Words = append(enc.Words, w)
			enc.Counts = append(enc.Counts, 0)
		}
		return id
	}
	flat := make([]int32, 0, 2*PairCount(tr, active))
	for _, e := range tr.Events {
		if active != nil && !active[e.Src] {
			continue
		}
		src, dst := intern("s:"+e.Src.String()), intern("d:"+e.Dst.String())
		port, proto := intern("p:"+e.Key().String()), intern("t:"+e.Proto.String())
		flat = append(flat, src, dst, src, port, src, proto, port, dst, proto, dst)
	}
	enc.Sequences = make([][]int32, len(flat)/2)
	for i := range enc.Sequences {
		enc.Sequences[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	for _, id := range flat {
		enc.Counts[id]++
	}
	return enc
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
// vectors only, in address-string order).
func Train(tr *trace.Trace, active map[netutil.IPv4]bool, cfg Config) (*embed.Space, error) {
	cfg = cfg.withDefaults()
	enc := pairs(tr, active)
	model, err := w2v.TrainEncodedWithOptions(enc, w2v.Config{
		Dim:    cfg.Dim,
		Window: 1, // a pair is a two-word sentence
		Epochs: cfg.Epochs,
		Seed:   cfg.Seed,
	}, w2v.TrainOptions{})
	if err != nil {
		return nil, err
	}
	var senders []string
	for _, w := range enc.Words {
		if strings.HasPrefix(w, "s:") {
			senders = append(senders, w)
		}
	}
	sort.Strings(senders)
	vectors := make([][]float32, len(senders))
	for i, w := range senders {
		vectors[i], _ = model.Vector(w)
		senders[i] = w[2:]
	}
	return embed.New(senders, vectors)
}
