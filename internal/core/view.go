package core

import (
	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
)

// Labels resolves the space's words to ground-truth classes — the one place
// a space's words meet a label set. Every IPv4-shaped word maps to its class
// (labels.Unknown when unlabeled); the pad word and other tokens are skipped.
func Labels(space *embed.Space, gt *labels.Set) map[string]string {
	out := make(map[string]string, space.Len())
	for _, w := range space.Words {
		if ip, err := netutil.ParseIPv4(w); err == nil {
			out[w] = gt.Class(ip)
		}
	}
	return out
}

// View is one look at a space — the unsupervised stage (§7) run once. It is
// a pure function of (space, ground truth, k′, seed), so everything that
// describes a generation (the drift gate's snapshot, /v1/clusters and
// /v1/sender, the batch report) reads one View. The k′-NN graph is dropped.
type View struct {
	Space      *embed.Space
	Labels     map[string]string // see Labels
	Assign     []int             // per space row
	Clusters   int
	Modularity float64
	// Sil is the per-row silhouette of Assign; nil with Err set when the
	// metric refused the space (non-finite rows). Labels and Assign stay
	// usable; cluster profiles do not.
	Sil []float64
	Err error
}

// NewView labels the space, clusters it (k′-NN graph + Louvain, §7.1–7.2)
// and scores the clustering.
func NewView(space *embed.Space, gt *labels.Set, kPrime int, seed uint64) *View {
	cl := Cluster(space, kPrime, seed)
	v := &View{
		Space:      space,
		Labels:     Labels(space, gt),
		Assign:     cl.Assign,
		Clusters:   cl.Clusters,
		Modularity: cl.Modularity,
	}
	v.Sil, v.Err = cluster.Silhouette(space, cl.Assign)
	return v
}

// Profiles runs the §7.3 cluster inspection over the port tally of the
// trace the senders came from; nil when the silhouette refused the space.
func (v *View) Profiles(t *cluster.PortTally) []cluster.Profile {
	if v.Err != nil {
		return nil
	}
	return t.Inspect(v.Space.Words, v.Assign, v.Sil, v.Labels, labels.Unknown)
}

// GateClass is the drift gate's per-word class: "" for unlabeled senders and
// non-sender tokens, which have no row in the per-class shift table.
func (v *View) GateClass(word string) string {
	if c := v.Labels[word]; c != labels.Unknown {
		return c
	}
	return ""
}
