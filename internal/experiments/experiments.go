// Package experiments regenerates every table and figure of the paper's
// evaluation on the synthetic darknet. Each experiment is a function from a
// shared Env (dataset + cached embeddings) to a Result that renders as an
// aligned text table and exports as CSV. cmd/experiments and the repository
// benchmarks both drive this package, so the numbers in EXPERIMENTS.md come
// from exactly the code paths the benchmarks measure.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// Options size an experiment run. The zero value selects a single-core
// friendly operating point (Scale 0.05, Rate 0.1, 30 days, the paper's
// V=50/c=25 with 5 epochs).
type Options struct {
	Seed   uint64
	Days   int
	Scale  float64
	Rate   float64
	Dim    int
	Window int
	Epochs int
	K      int
	KPrime int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Days == 0 {
		o.Days = 30
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Rate == 0 {
		o.Rate = 0.10
	}
	if o.Dim == 0 {
		o.Dim = 50
	}
	if o.Window == 0 {
		o.Window = 25
	}
	if o.Epochs == 0 {
		o.Epochs = 5
	}
	if o.K == 0 {
		o.K = 7
	}
	if o.KPrime == 0 {
		o.KPrime = 3
	}
	return o
}

// Result is one regenerated table or figure: tabular data plus free-form
// notes (the "shape" observations compared against the paper).
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the result as an aligned text table.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// WriteCSV exports header and rows.
func (r Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Env is the shared state of an experiment run: one synthetic dataset plus
// lazily trained, cached embeddings.
type Env struct {
	Opts   Options
	Out    *darksim.Output
	Full   *trace.Trace
	Last   *trace.Trace
	GT     *labels.Set
	Active map[netutil.IPv4]bool

	embeddings map[string]*core.Embedding
}

// NewEnv generates the dataset and derives the shared artefacts.
func NewEnv(opts Options) *Env {
	opts = opts.withDefaults()
	out := darksim.Generate(darksim.Config{
		Seed: opts.Seed, Days: opts.Days, Scale: opts.Scale, Rate: opts.Rate,
	})
	return &Env{
		Opts:       opts,
		Out:        out,
		Full:       out.Trace,
		Last:       out.Trace.LastDays(1),
		GT:         labels.Build(out.Trace, out.Feeds),
		Active:     out.Trace.ActiveSenders(10),
		embeddings: map[string]*core.Embedding{},
	}
}

// config assembles a core.Config for the env's operating point.
func (e *Env) config(kind core.ServiceKind, dim, window int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Services = kind
	cfg.K = e.Opts.K
	cfg.KPrime = e.Opts.KPrime
	cfg.W2V = w2v.Config{
		Dim:          dim,
		Window:       window,
		Epochs:       e.Opts.Epochs,
		Seed:         e.Opts.Seed,
		ShrinkWindow: true,
		PadToken:     "NULL",
	}
	return cfg
}

// Embedding trains (or returns the cached) embedding for a service kind and
// training-window length in days, at the env's default V and c.
func (e *Env) Embedding(kind core.ServiceKind, days int) (*core.Embedding, error) {
	return e.EmbeddingVC(kind, days, e.Opts.Dim, e.Opts.Window)
}

// EmbeddingVC is Embedding with explicit V (dim) and c (window).
func (e *Env) EmbeddingVC(kind core.ServiceKind, days, dim, window int) (*core.Embedding, error) {
	key := fmt.Sprintf("%s/%dd/V%d/c%d", kind, days, dim, window)
	if emb, ok := e.embeddings[key]; ok {
		return emb, nil
	}
	tr := e.Full
	if days < e.Opts.Days {
		tr = e.Full.LastDays(days)
	}
	emb, err := core.TrainEmbedding(tr, e.config(kind, dim, window))
	if err != nil {
		return nil, fmt.Errorf("experiments: training %s: %w", key, err)
	}
	e.embeddings[key] = emb
	return emb, nil
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(*Env) (Result, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"table1", "Dataset statistics (paper Table 1)", (*Env).Table1},
		{"fig1a", "Packets-per-port ECDF and top ports (paper Fig. 1a)", (*Env).Fig1a},
		{"fig1b", "Sender activity over time (paper Fig. 1b)", (*Env).Fig1b},
		{"fig2a", "Packets-per-sender ECDF and active filter (paper Fig. 2a)", (*Env).Fig2a},
		{"fig2b", "Cumulative distinct senders over days (paper Fig. 2b)", (*Env).Fig2b},
		{"table2", "Ground-truth classes on the last day (paper Table 2)", (*Env).Table2},
		{"fig3", "Class × service traffic heatmap (paper Fig. 3)", (*Env).Fig3},
		{"table6", "Baseline 7-NN on port features (paper Table 6)", (*Env).Table6},
		{"table3", "DarkVec vs IP2VEC vs DANTE (paper Table 3)", (*Env).Table3},
		{"fig6", "Coverage vs training window (paper Fig. 6)", (*Env).Fig6},
		{"fig7", "Accuracy vs k per service definition (paper Fig. 7)", (*Env).Fig7},
		{"fig8", "Grid search on c and V (paper Fig. 8)", (*Env).Fig8},
		{"table4", "Per-class 7-NN report per service definition (paper Table 4)", (*Env).Table4},
		{"fig9", "Activity patterns: Stretchoid vs Engin-Umich (paper Fig. 9)", (*Env).Fig9},
		{"fig10", "Clusters and modularity vs k' (paper Fig. 10)", (*Env).Fig10},
		{"fig11", "Average silhouette per cluster (paper Fig. 11)", (*Env).Fig11},
		{"table5", "Detected coordinated groups (paper Table 5)", (*Env).Table5},
		{"fig12-15", "Sub-cluster activity patterns (paper Figs. 12-15)", (*Env).Fig12to15},
		{"ablation", "Classic clusterers vs graph+Louvain (§7.1)", (*Env).AblationClusterers},
		{"ablation-w2v", "Word2Vec architecture ablation (§5.3 choice)", (*Env).AblationArchitecture},
		{"ablation-deltat", "Impact of the sequence window ΔT (footnote 5)", (*Env).AblationDeltaT},
		{"transfer", "Cross-darknet embedding transfer (§8 open question)", (*Env).Transfer},
		{"federation", "Multi-vantage federation vs single darknet (§8, federated)", (*Env).Federation},
		{"incremental", "Incremental model refresh vs retrain (§8 discussion)", (*Env).Incremental},
		{"rolling", "Rolling-window warm-start retrains vs cold (§8, operational)", (*Env).Rolling},
		{"neighbours", "Nearest-neighbour cohort purity per GT class", (*Env).MostSimilarDemo},
		{"honeypot", "Honeypot confirmation of the SSH cluster (§7.3.3)", (*Env).HoneypotVerify},
		{"attacks", "Evasive scanners vs the drift gate (robustness)", (*Env).Adversarial},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// helpers shared by the experiment files

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func i64(v int64) string   { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// sortedKeys returns map keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
