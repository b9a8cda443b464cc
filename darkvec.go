// Package darkvec is a from-scratch Go implementation of DarkVec
// (Gioacchini et al., CoNEXT 2021): automatic analysis of darknet traffic
// with word embeddings. Senders' IP addresses are treated as words,
// per-service time-windowed arrival sequences as sentences, and a single
// skip-gram Word2Vec model projects senders into a latent space where
// coordinated actors (botnets, scan projects) form compact regions. On top
// of the embedding the package offers the paper's two analyses:
//
//   - semi-supervised: a cosine k-NN classifier propagates known labels
//     (Mirai fingerprints, scanner-project feeds) to unknown senders;
//   - unsupervised: a k′-NN similarity graph plus Louvain community
//     detection surfaces previously unknown coordinated groups.
//
// The package also ships every substrate needed to reproduce the paper
// end-to-end without external dependencies: a packet decoding layer, a pcap
// reader/writer, a Word2Vec engine, a Louvain implementation, classic
// clustering baselines, the DANTE and IP2VEC comparison systems, and a
// synthetic darknet generator with the paper's population structure.
//
// # Quick start
//
//	data := darkvec.Simulate(darkvec.SimConfig{Scale: 0.02, Rate: 0.05})
//	emb, err := darkvec.Train(data.Trace, darkvec.DefaultConfig())
//	if err != nil { ... }
//	gt := darkvec.BuildGroundTruth(data.Trace, data.Feeds)
//	space, coverage := emb.EvalSpace(data.Trace.LastDays(1), nil)
//	report := darkvec.Evaluate(space, gt, 7)
//	fmt.Println(report, coverage)
//
// The exported identifiers are type aliases onto the implementation
// packages, so the full godoc of each subsystem applies unchanged.
package darkvec

import (
	"io"

	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/knn"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/metrics"
	"github.com/darkvec/darkvec/internal/modelstore"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/pcapio"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// Core data types.
type (
	// Trace is an ordered darknet packet trace.
	Trace = trace.Trace
	// Event is one packet reaching the darknet.
	Event = trace.Event
	// PortKey identifies a destination port and protocol (e.g. 23/tcp).
	PortKey = trace.PortKey
	// IPv4 is a compact IPv4 address.
	IPv4 = netutil.IPv4
	// GroundTruth assigns senders to known classes.
	GroundTruth = labels.Set
)

// Pipeline types.
type (
	// Config parameterises a DarkVec run; see DefaultConfig.
	Config = core.Config
	// W2VConfig are the Word2Vec hyper-parameters a run may vary: V, c,
	// epochs, seed, window shrinking, the pad word and the architecture.
	// Zero values select the paper's; training is serial, so the model is
	// a deterministic function of the trace and this struct.
	W2VConfig = w2v.Config
	// Embedding is a trained DarkVec model.
	Embedding = core.Embedding
	// Space is a queryable set of unit-norm sender vectors.
	Space = embed.Space
	// Report is a per-class precision/recall/F-score report.
	Report = metrics.Report
	// ClassStat is one row of a Report.
	ClassStat = metrics.ClassStat
	// Prediction is one k-NN classification outcome.
	Prediction = knn.Prediction
	// Clustering is the unsupervised stage result.
	Clustering = core.Clustering
	// ClusterProfile characterises one detected cluster.
	ClusterProfile = cluster.Profile
	// Heatmap is the class × service traffic breakdown (paper Fig. 3).
	Heatmap = core.Heatmap
)

// Approximate k-NN types. A Space answers neighbour queries exactly by
// default; BuildIVF attaches an inverted-file cell-probe index over the same
// float32 rows that trades a calibrated, measured recall loss for
// sub-linear scans on large spaces.
type (
	// ANNIndex is an inverted-file approximate k-NN index over a Space.
	ANNIndex = embed.IVF
	// ANNOptions parameterises index construction. The zero value — plus a
	// Seed — is the served index: ~√N cells, nprobe calibrated to a sampled
	// recall@10 ≥ 0.99 against the exact engine. Cells and NProbe pin the
	// geometry for tests' oracles; a pinned index reports no measured recall.
	ANNOptions = embed.IVFOptions
	// ANNStats describes a built index: cell geometry, calibrated recall,
	// the vector footprint and the answers re-run exactly for being short.
	ANNStats = embed.IVFStats
)

// Simulation types.
type (
	// SimConfig controls the synthetic darknet generator.
	SimConfig = darksim.Config
	// SimOutput is a generated dataset: trace, scanner feeds, planted groups.
	SimOutput = darksim.Output
)

// Corpus is the word-sequence training input built from a trace (§5.2).
// Sequences carry interned integer tokens; Interner() maps them back to
// sender addresses.
type Corpus = corpus.Corpus

// CorpusOptions tunes corpus construction: builder parallelism and an
// optional shared SenderInterner.
type CorpusOptions = corpus.Options

// SenderInterner is an append-only sender ↔ integer-token id table. Shared
// across corpus builds (e.g. rolling retrains) it keeps ids stable and
// interns each distinct sender exactly once per process.
type SenderInterner = corpus.Interner

// NewSenderInterner creates an empty sender id space.
func NewSenderInterner() *SenderInterner { return corpus.NewInterner() }

// ServiceKind selects the §5.2 service definition strategy.
type ServiceKind = core.ServiceKind

// Service definition strategies.
const (
	ServiceSingle = core.ServiceSingle
	ServiceAuto   = core.ServiceAuto
	ServiceDomain = core.ServiceDomain
)

// UnknownClass is the label of senders without ground truth.
const UnknownClass = labels.Unknown

// DefaultConfig returns the paper's operating point: domain-knowledge
// services, ΔT = 1 h, V = 50, c = 25, 10 epochs, k = 7, k′ = 3.
func DefaultConfig() Config { return core.DefaultConfig() }

// Resilience types (tolerant ingestion, cancellable and warm-started training).
type (
	// Budget is an ingestion error budget; the zero value is strict (the
	// first malformed record aborts).
	Budget = robust.Budget
	// IngestReport summarises what an ingestion run saw: records read,
	// skipped, truncation and sampled error messages. It is goroutine-safe
	// (live sources share one report) and must not be copied; use Snapshot
	// for a plain value.
	IngestReport = robust.IngestReport
	// IngestStats is a point-in-time plain-value copy of an IngestReport.
	IngestStats = robust.IngestStats
	// TrainOpts adds cancellation, a shared interner and warm start to
	// training.
	TrainOpts = core.TrainOpts
	// WarmSeed is TrainOpts.Warm: the previous generation a refresh starts
	// from, so that only the window delta is trained.
	WarmSeed = w2v.WarmSeed
)

// Resilience sentinels.
var (
	// ErrBudgetExceeded wraps ingestion failures caused by a blown error
	// budget (test with errors.Is).
	ErrBudgetExceeded = robust.ErrBudgetExceeded
	// ErrTruncated wraps pcap reads that end mid-record (test with
	// errors.Is); tolerant readers convert it into IngestReport.Truncated.
	ErrTruncated = pcapio.ErrTruncated
)

// DefaultBudget tolerates up to 1% malformed records once at least 100
// have been seen — a sane operating point for dirty real-world captures.
func DefaultBudget() Budget { return robust.DefaultBudget() }

// Train filters active senders, builds the per-service corpus and trains a
// single Word2Vec embedding over the trace.
func Train(tr *Trace, cfg Config) (*Embedding, error) { return core.TrainEmbedding(tr, cfg) }

// TrainWithOpts is Train with a cancellation context and warm start. A
// cancelled run returns the context's error and no embedding; to build on
// an earlier model, pass it as TrainOpts.Warm.
func TrainWithOpts(tr *Trace, cfg Config, opts TrainOpts) (*Embedding, error) {
	return core.TrainEmbeddingOpts(tr, cfg, opts)
}

// Evaluate runs the Leave-One-Out k-NN classification protocol over a space
// under the given ground truth.
func Evaluate(space *Space, gt *GroundTruth, k int) Report { return core.Evaluate(space, gt, k) }

// Predict returns raw Leave-One-Out k-NN predictions for every labeled
// sender in the space.
func Predict(space *Space, gt *GroundTruth, k int) []Prediction {
	return core.Predictions(space, gt, k)
}

// ExtendGroundTruth applies §6.4: Unknown senders predicted into a GT class
// and no farther from their neighbours than true members are promoted.
func ExtendGroundTruth(preds []Prediction) map[string][]Prediction {
	return knn.ExtendGroundTruth(preds, labels.Unknown)
}

// Cluster builds the k′-NN graph over the space and extracts Louvain
// communities.
func Cluster(space *Space, kPrime int, seed uint64) Clustering {
	return core.Cluster(space, kPrime, seed)
}

// Silhouette returns per-row silhouette coefficients (cosine distance) for
// a cluster assignment. Mismatched assignments, out-of-range class ids, or
// non-finite vector data return an error instead of NaN scores.
func Silhouette(space *Space, assign []int) ([]float64, error) {
	return cluster.Silhouette(space, assign)
}

// InspectClusters profiles every cluster against the trace and ground truth
// (port signatures, subnet concentration, dominant label).
func InspectClusters(tr *Trace, space *Space, assign []int, sil []float64, gt *GroundTruth) []ClusterProfile {
	return cluster.Inspect(tr, space.Words, assign, sil, core.Labels(space, gt), labels.Unknown)
}

// BuildGroundTruth derives GT classes: the Mirai fingerprint from the trace
// plus published scanner-project IP feeds.
func BuildGroundTruth(tr *Trace, feeds map[string][]IPv4) *GroundTruth {
	return labels.Build(tr, feeds)
}

// Simulate generates a synthetic darknet dataset with the paper's
// population structure at the configured scale.
func Simulate(cfg SimConfig) *SimOutput { return darksim.Generate(cfg) }

// ParseIPv4 parses a dotted-quad address.
func ParseIPv4(s string) (IPv4, error) { return netutil.ParseIPv4(s) }

// BuildCorpus constructs the per-service, ΔT-windowed word sequences for a
// trace under a service definition. deltaT <= 0 uses the paper's one hour.
func BuildCorpus(tr *Trace, kind ServiceKind, deltaT int64) (*Corpus, error) {
	return BuildCorpusOpts(tr, kind, deltaT, CorpusOptions{})
}

// BuildCorpusOpts is BuildCorpus with explicit builder options: a worker
// count for the parallel builder (0 = GOMAXPROCS) and an optional shared
// interner. Output is identical at any worker count.
func BuildCorpusOpts(tr *Trace, kind ServiceKind, deltaT int64, opts CorpusOptions) (*Corpus, error) {
	cfg := core.Config{Services: kind}
	def, err := cfg.Definition(tr)
	if err != nil {
		return nil, err
	}
	return corpus.BuildOpts(tr, def, deltaT, opts), nil
}

// ReadTraceCSV loads a trace in the repository's CSV interchange format
// under an error budget (the zero Budget is strict): malformed rows are
// skipped and counted until the budget blows, and the report says exactly
// what was dropped.
func ReadTraceCSV(r io.Reader, budget Budget) (*Trace, *IngestReport, error) {
	return trace.ReadCSV(r, budget)
}

// WriteTraceCSV stores a trace in the CSV interchange format.
func WriteTraceCSV(w io.Writer, tr *Trace) error { return tr.WriteCSV(w) }

// ReadTracePCAP decodes a libpcap capture into a trace under an error
// budget, re-deriving Mirai fingerprints from TCP sequence numbers; a
// capture cut off mid-record yields its intact prefix with the report's
// Truncated flag set unless the budget is strict.
func ReadTracePCAP(r io.Reader, budget Budget) (*Trace, *IngestReport, error) {
	return trace.ReadPCAP(r, budget)
}

// WriteTracePCAP serialises the trace as a valid libpcap capture with
// fully-formed Ethernet/IPv4/TCP|UDP|ICMP packets.
func WriteTracePCAP(w io.Writer, tr *Trace) error { return tr.WritePCAP(w) }

// ReadTraceFile loads a .csv or .pcap trace from disk, strictly when
// maxErr is 0 or tolerating up to maxErr malformed records otherwise.
func ReadTraceFile(path string, maxErr int64) (*Trace, *IngestReport, error) {
	return trace.ReadFile(path, maxErr)
}

// ParseServiceMap reads a user-supplied JSON port→service map (an
// operator's own Table 7) usable via Config.Custom. See services.ParseCustom
// for the document format.
func ParseServiceMap(name string, r io.Reader) (*services.Custom, error) {
	return services.ParseCustom(name, r)
}

// MergeTraces combines several darknet views into one time-ordered trace.
func MergeTraces(traces ...*Trace) *Trace { return trace.Merge(traces...) }

// Crash-safe model lifecycle types (the darkvecd serving loop: versioned
// checksummed artifacts, supervised retraining, automatic rollback).
type (
	// ModelStore is a versioned on-disk model store: every artifact carries
	// a CRC32C footer, publishes are atomic, and opening falls back to the
	// newest intact generation while quarantining corrupt ones.
	ModelStore = modelstore.Store
	// ModelVersion numbers store generations (formats as v000042).
	ModelVersion = modelstore.Version
	// ModelStoreOptions configures OpenModelStore.
	ModelStoreOptions = modelstore.Options
	// Backoff computes jittered exponential retry delays.
	Backoff = robust.Backoff
	// Breaker is a consecutive-failure circuit breaker.
	Breaker = robust.Breaker
	// Supervisor retries a function under Backoff and Breaker control.
	Supervisor = robust.Supervisor
	// ArtifactInfo describes a saved model (see VerifyArtifact).
	ArtifactInfo = w2v.ArtifactInfo
)

// Model lifecycle sentinels.
var (
	// ErrStoreEmpty is returned when a model store has no intact versions.
	ErrStoreEmpty = modelstore.ErrEmpty
	// ErrChecksum wraps any artifact integrity failure (test with errors.Is).
	ErrChecksum = robust.ErrChecksum
	// ErrGiveUp marks a Supervisor run stopped by its open circuit breaker.
	ErrGiveUp = robust.ErrGiveUp
)

// OpenModelStore opens (creating if needed) a versioned model store
// directory and sweeps debris left by interrupted publishes.
func OpenModelStore(dir string, opts ModelStoreOptions) (*ModelStore, error) {
	return modelstore.Open(dir, opts)
}

// VerifyArtifact inspects a saved model stream: its shape, and whether its
// trailing checksum holds (a missing one is ErrChecksum).
func VerifyArtifact(r io.Reader) (ArtifactInfo, error) { return w2v.Verify(r) }

// Live ingestion types (the darkvecd -ingest pipeline: bounded sources
// with explicit backpressure feeding a rolling, memory-bounded window).
type (
	// Ingestor runs the live pipeline: TCP/unix/tail/reader sources feed a
	// bounded queue draining into a rolling window, with per-source rate
	// limits, a malformed-line quarantine and a stall watchdog.
	Ingestor = stream.Ingestor
	// IngestorConfig assembles an Ingestor.
	IngestorConfig = stream.Config
	// IngestorStats is the full counter snapshot of a live pipeline.
	IngestorStats = stream.Stats
	// RollingWindow is a bounded, rolling, in-memory event store — the
	// live-feed equivalent of a training trace.
	RollingWindow = stream.Window
	// RollingWindowConfig bounds a RollingWindow (event cap + age horizon).
	RollingWindowConfig = stream.WindowConfig
	// DropPolicy selects what a full ingest queue sheds.
	DropPolicy = stream.DropPolicy
)

// Ingest queue drop policies.
const (
	// ShedNewest rejects incoming events when the queue is full (default).
	ShedNewest = stream.ShedNewest
	// DropOldest evicts the oldest queued event to admit the newest.
	DropOldest = stream.DropOldest
)

// NewIngestor builds a live ingestion pipeline and starts its consumer.
// Attach sources with Serve/Follow/Consume; stop with Close.
func NewIngestor(cfg IngestorConfig) *Ingestor { return stream.New(cfg) }

// NewRollingWindow builds a bounded rolling event window.
func NewRollingWindow(cfg RollingWindowConfig) *RollingWindow { return stream.NewWindow(cfg) }
