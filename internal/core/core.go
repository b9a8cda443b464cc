// Package core wires the DarkVec methodology together (§5): active-sender
// filtering, service definition, corpus construction, a single Word2Vec
// embedding, the semi-supervised k-NN evaluation (§6) and the unsupervised
// k′-NN graph + Louvain clustering (§7).
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/graphx"
	"github.com/darkvec/darkvec/internal/knn"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/louvain"
	"github.com/darkvec/darkvec/internal/metrics"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// ServiceKind selects the §5.2 service definition.
type ServiceKind string

// Supported service definitions.
const (
	ServiceSingle ServiceKind = "single"
	ServiceAuto   ServiceKind = "auto"
	ServiceDomain ServiceKind = "domain"
)

// Config parameterises a DarkVec run. The zero value plus DefaultConfig()
// reproduces the paper's operating point: domain-knowledge services,
// ΔT = 1 h, V = 50, c = 25, k = 7, k′ = 3, active threshold 10 packets.
type Config struct {
	Services   ServiceKind
	AutoTopN   int   // auto-defined services: top-n ports (paper: 10)
	DeltaT     int64 // sequence window seconds (paper: 1 hour)
	MinPackets int   // active-sender threshold (paper: 10)
	K          int   // k-NN classifier neighbours (paper: 7)
	KPrime     int   // clustering graph out-degree (paper: 3)
	W2V        w2v.Config
	// Custom, when non-nil, overrides Services with a user-supplied port →
	// service map (an operator's own Table 7).
	Custom *services.Custom
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Services:   ServiceDomain,
		AutoTopN:   10,
		DeltaT:     corpus.DefaultDeltaT,
		MinPackets: 10,
		K:          7,
		KPrime:     3,
		W2V: w2v.Config{
			Dim:          50,
			Window:       25,
			Epochs:       10,
			Seed:         1,
			ShrinkWindow: true,
			PadToken:     "NULL",
		},
	}
}

// Definition materialises the configured service definition (Auto needs the
// training trace to rank ports).
func (c Config) Definition(tr *trace.Trace) (services.Definition, error) {
	if c.Custom != nil {
		return c.Custom, nil
	}
	switch c.Services {
	case ServiceSingle:
		return services.Single{}, nil
	case ServiceAuto, "":
		n := c.AutoTopN
		if n == 0 {
			n = 10
		}
		return services.NewAuto(tr, n), nil
	case ServiceDomain:
		return services.NewDomain(), nil
	}
	return nil, fmt.Errorf("core: unknown service kind %q", c.Services)
}

// Embedding is a trained DarkVec model plus bookkeeping.
type Embedding struct {
	Model     *w2v.Model
	Corpus    *corpus.Corpus
	Active    map[netutil.IPv4]bool // senders that passed the filter
	TrainTime time.Duration
	SkipGrams int64 // padded pair count per the Table 3 accounting
	Epochs    int
}

// TrainOpts controls how a training run is driven: cancellation, the
// shared sender id space and warm start.
type TrainOpts struct {
	// Context cancels training (e.g. on SIGTERM); nil means background. A
	// cancelled run returns the context's error and no embedding.
	Context context.Context
	// Interner, when non-nil, is the shared sender id space for corpus
	// construction. Reusing one across retrains keeps token ids stable and
	// skips re-interning senders seen in earlier windows. nil builds a
	// private interner for this run.
	Interner *corpus.Interner
	// Warm, when non-nil, seeds training from a previous generation and
	// shrinks the epoch budget to the window delta (see w2v.WarmSeed).
	// Failures are tagged w2v.ErrWarmSeed; callers fall back to a cold
	// train by retrying without the seed.
	Warm *w2v.WarmSeed
}

// TrainEmbedding runs the §5 pipeline on a training trace: filter active
// senders, build the per-service ΔT corpus, train one Word2Vec model.
func TrainEmbedding(tr *trace.Trace, cfg Config) (*Embedding, error) {
	return TrainEmbeddingOpts(tr, cfg, TrainOpts{})
}

// TrainEmbeddingOpts is TrainEmbedding with cancellation, a shared
// interner and warm start — the controls the daemon's retrain cycle uses.
// It trains on tr.Cut(cfg.MinPackets).Trainable.
func TrainEmbeddingOpts(tr *trace.Trace, cfg Config, opts TrainOpts) (*Embedding, error) {
	in, err := prepare(tr.Cut(cfg.withDefaults().MinPackets), cfg, opts)
	if err != nil {
		return nil, err
	}
	return in.train(cfg, opts)
}

// trainInput is all training reads of its cut: the senders that passed
// the active filter and the corpus of their events. Once it is built the
// events are no longer needed, and a retry trains on the same corpus.
type trainInput struct {
	active map[netutil.IPv4]bool
	corp   *corpus.Corpus
}

// prepare builds the per-service ΔT corpus (§5.2) of c's trainable events
// under opts' context and interner.
func prepare(c trace.Cut, cfg Config, opts TrainOpts) (trainInput, error) {
	cfg = cfg.withDefaults()
	def, err := cfg.Definition(c.Trainable)
	if err != nil {
		return trainInput{}, err
	}
	var corp *corpus.Corpus
	pprof.Do(opts.context(), pprof.Labels("darkvec_phase", "corpus-build"), func(context.Context) {
		corp = corpus.BuildOpts(c.Trainable, def, cfg.DeltaT, corpus.Options{Interner: opts.Interner})
	})
	return trainInput{active: c.Active(), corp: corp}, nil
}

// train fits one Word2Vec model to the corpus (§5.3).
func (in trainInput) train(cfg Config, opts TrainOpts) (*Embedding, error) {
	corp := in.corp
	start := time.Now()
	// Integer token path end-to-end: hand the trainer the interned corpus
	// directly so no sender string is re-hashed during vocabulary building
	// or encoding. The model does not depend on the interner's id order. A
	// shared interner may have grown since the build; ids past len(Counts)
	// cannot appear in this corpus, so read only the ids it can hold.
	words, _ := corp.Interner().Words(0, len(corp.Counts))
	var model *w2v.Model
	var err error
	pprof.Do(opts.context(), pprof.Labels("darkvec_phase", "train"), func(context.Context) {
		model, err = w2v.TrainEncodedWithOptions(w2v.Encoded{
			Sequences: corp.TokenSequences(),
			Words:     words,
			Counts:    corp.Counts,
		}, cfg.W2V, w2v.TrainOptions{Context: opts.Context, Warm: opts.Warm})
	})
	if err != nil {
		return nil, err
	}
	// model.Cfg carries the trainer's defaults. A warm start runs a
	// delta-sized budget; report the epochs that actually happened, not the
	// configured ceiling.
	epochs := model.Cfg.Epochs
	if model.Warm != nil {
		epochs = model.Warm.Epochs
	}
	return &Embedding{
		Model:     model,
		Corpus:    corp,
		Active:    in.active,
		TrainTime: time.Since(start),
		SkipGrams: corp.SkipGrams(model.Cfg.Window, cfg.W2V.PadToken != "") * int64(epochs),
		Epochs:    epochs,
	}, nil
}

// context is the run's context, background when none was given.
func (o TrainOpts) context() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// withDefaults fills the paper's active threshold and ΔT where unset.
func (c Config) withDefaults() Config {
	if c.MinPackets == 0 {
		c.MinPackets = 10
	}
	if c.DeltaT == 0 {
		c.DeltaT = corpus.DefaultDeltaT
	}
	return c
}

// EmbeddingFromModel rebuilds the serving bookkeeping around a model that
// was loaded from disk rather than trained in-process — the kill-9
// recovery path, where darkvecd boots from the model store and must serve
// without retraining. The corpus and timing of the original run are gone;
// the active-sender set is recomputed from the trace, which is what the
// API layer actually needs.
func EmbeddingFromModel(m *w2v.Model, tr *trace.Trace, cfg Config) *Embedding {
	cfg = cfg.withDefaults()
	epochs := cfg.W2V.Epochs
	if epochs == 0 {
		epochs = 10
	}
	return &Embedding{
		Model:  m,
		Active: tr.ActiveSenders(cfg.MinPackets),
		Epochs: epochs,
	}
}

// EvalSpace projects the evaluation population into a query space and
// reports coverage: the fraction of that population the embedding knows
// (Fig 6's metric). The population is the senders present in eval and
// marked active — pass the active-sender set of the FULL dataset (the
// paper's definition); nil falls back to the training trace's active set,
// which is only equivalent when the model was trained on the full dataset.
func (e *Embedding) EvalSpace(eval *trace.Trace, active map[netutil.IPv4]bool) (*embed.Space, float64) {
	if active == nil {
		active = e.Active
	}
	senders := eval.Senders()
	kept := senders[:0]
	for _, ip := range senders {
		if active[ip] {
			kept = append(kept, ip)
		}
	}
	return e.spaceOf(kept)
}

// spaceOf is EvalSpace over an eval population already listed: the space
// of the senders the model knows, and their share of the list.
func (e *Embedding) spaceOf(senders []netutil.IPv4) (*embed.Space, float64) {
	present := map[string]bool{}
	covered := 0
	for _, ip := range senders {
		w := ip.String()
		if _, ok := e.Model.Vocab.ID(w); ok {
			present[w] = true
			covered++
		}
	}
	space := embed.FromModel(e.Model, present)
	var cov float64
	if len(senders) > 0 {
		cov = float64(covered) / float64(len(senders))
	}
	return space, cov
}

// Evaluate runs the Leave-One-Out k-NN protocol over the space with labels
// from set, producing the paper-style report.
func Evaluate(space *embed.Space, set *labels.Set, k int) metrics.Report {
	return knn.Evaluate(space, Labels(space, set), k, labels.Unknown)
}

// Predictions returns raw LOO k-NN predictions (for GT extension, §6.4).
func Predictions(space *embed.Space, set *labels.Set, k int) []knn.Prediction {
	return knn.NewClassifier(space, nil, Labels(space, set)).All(k)
}

// Clustering is the unsupervised stage output.
type Clustering struct {
	Assign     []int // per space row
	Clusters   int
	Modularity float64
}

// Cluster builds the k′-NN graph over the space and extracts Louvain
// communities (§7.1–7.2). The graph is dropped.
func Cluster(space *embed.Space, kPrime int, seed uint64) Clustering {
	if kPrime <= 0 {
		kPrime = 3
	}
	res := louvain.Run(graphx.KNNGraph(space, kPrime), louvain.Options{Seed: seed})
	return Clustering{
		Assign:     res.Community,
		Clusters:   res.Communities,
		Modularity: res.Modularity,
	}
}

// Heatmap computes Figure 3: for each (GT class, service) pair, the
// fraction of the class's packets that hit the service, using the given
// service definition. Rows are classes, columns services.
type Heatmap struct {
	Classes  []string
	Services []string
	// Frac[class][service] is normalised per class (columns of the paper's
	// figure, which normalises per sender class).
	Frac map[string]map[string]float64
}

// BuildHeatmap aggregates eval-trace traffic by class and service.
func BuildHeatmap(tr *trace.Trace, set *labels.Set, def services.Definition) Heatmap {
	counts := map[string]map[string]int{}
	totals := map[string]int{}
	for _, e := range tr.Events {
		c := set.Class(e.Src)
		s := def.Service(e.Key())
		if counts[c] == nil {
			counts[c] = map[string]int{}
		}
		counts[c][s]++
		totals[c]++
	}
	h := Heatmap{Services: def.Names(), Frac: map[string]map[string]float64{}}
	for c, svc := range counts {
		h.Classes = append(h.Classes, c)
		h.Frac[c] = map[string]float64{}
		for s, n := range svc {
			h.Frac[c][s] = float64(n) / float64(totals[c])
		}
	}
	sort.Strings(h.Classes)
	return h
}
