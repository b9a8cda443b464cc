// Command darkvec runs the DarkVec pipeline on a darknet trace: it trains
// the per-service Word2Vec embedding, then reports both stages over the
// final -evaldays: the classification of labeled senders (semi-supervised,
// Leave-One-Out) and the coordinated clusters (unsupervised, k'-NN graph +
// Louvain).
//
// Usage:
//
//	darkvec -in trace.csv -feeds feeds/
//	darkvec -in trace.csv -evaldays 3
//	darkvec -in trace.csv -feeds feeds/ -model model.bin
//
// Feeds are per-class IP lists (<class>.txt, one address per line); the
// Mirai-like class is derived from the packet fingerprint automatically.
//
// Dirty captures can be ingested with -maxerr N, which skips up to N
// malformed records and prints the ingest report. A run either completes
// or, interrupted (Ctrl-C, SIGTERM), exits non-zero and leaves no file:
// -model is written to a temporary sibling and renamed into place, so the
// path holds the previous model or the new one, never a torn mix. Re-run
// to reproduce an interrupted train; the result is the same bytes.
//
// -verify FILE inspects a saved model without running the pipeline: it
// reports the vocabulary size, dimension and whether the embedded checksum
// holds, and exits non-zero on corruption.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// options carries every flag of a pipeline run.
type options struct {
	in       string
	feedsDir string
	servKind string
	servFile string
	dim      int
	window   int
	epochs   int
	k        int
	kPrime   int
	seed     uint64
	modelOut string
	evalDays int
	maxErr   int64
	verify   string

	saveWrap func(io.Writer) io.Writer // test hook: fault injection on the -model write
}

// register declares every flag on fs, bound to o's fields.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.in, "in", "", "input trace (.csv or .pcap)")
	fs.StringVar(&o.feedsDir, "feeds", "", "directory of <class>.txt IP feeds")
	fs.StringVar(&o.servKind, "services", "domain", "service definition: single | auto | domain")
	fs.StringVar(&o.servFile, "services-file", "", "JSON port→service map overriding -services")
	fs.IntVar(&o.dim, "dim", 50, "embedding dimension V")
	fs.IntVar(&o.window, "window", 25, "context window c")
	fs.IntVar(&o.epochs, "epochs", 10, "training epochs")
	fs.IntVar(&o.k, "k", 7, "k-NN classifier neighbours")
	fs.IntVar(&o.kPrime, "kprime", 3, "clustering graph out-degree k'")
	fs.Uint64Var(&o.seed, "seed", 1, "training seed")
	fs.StringVar(&o.modelOut, "model", "", "optional path to save the trained model")
	fs.IntVar(&o.evalDays, "evaldays", 1, "evaluate on the final N days of the trace")
	fs.Int64Var(&o.maxErr, "maxerr", 0, "tolerate up to N malformed input records (0 = strict)")
	fs.StringVar(&o.verify, "verify", "", "verify a saved model file and exit")
}

// validate rejects nonsensical flags before the trace is read, so a typo
// fails in milliseconds rather than after a training run whose report
// would be empty or describe an untrained model.
func (o *options) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"dim", o.dim}, {"window", o.window}, {"epochs", o.epochs},
		{"k", o.k}, {"kprime", o.kPrime}, {"evaldays", o.evalDays},
	} {
		if f.v <= 0 {
			return fmt.Errorf("invalid -%s %d: must be > 0", f.name, f.v)
		}
	}
	if o.maxErr < 0 {
		return fmt.Errorf("invalid -maxerr %d: must be >= 0", o.maxErr)
	}
	return nil
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if o.verify != "" {
		if err := runVerify(os.Stdout, o.verify); err != nil {
			fmt.Fprintln(os.Stderr, "darkvec:", err)
			os.Exit(1)
		}
		return
	}
	if o.in == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "darkvec:", err)
		os.Exit(1)
	}
}

// runVerify checks a saved artifact end to end — magic, structure and the
// trailing checksum — and prints a one-artifact report. Operators run it
// before copying a model between hosts or after a suspicious crash.
func runVerify(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := w2v.Verify(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: model, %d words, dim %d, checksum OK\n", path, info.Words, info.Dim)
	return nil
}

// writeModelFile saves the model atomically: write to a temporary sibling,
// fsync, rename into place, so an interrupt, a full disk or a failed write
// never destroys the model that was at path before.
func writeModelFile(path string, m *w2v.Model, wrap func(io.Writer) io.Writer) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if wrap != nil {
		w = wrap(w)
	}
	err = m.Save(w)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func run(ctx context.Context, o options) error {
	if err := o.validate(); err != nil {
		return err
	}
	tr, rep, err := trace.ReadFile(o.in, o.maxErr)
	if err != nil {
		return err
	}
	fmt.Println(rep.String())
	feeds, err := labels.ReadFeedDir(o.feedsDir)
	if err != nil {
		return err
	}
	gt := labels.Build(tr, feeds)
	fmt.Printf("trace: %d events, %d days; ground truth: %d labeled senders in %d classes\n",
		tr.Len(), tr.Days(), gt.Labeled(), len(gt.Classes()))

	cfg := core.DefaultConfig()
	cfg.Services = core.ServiceKind(o.servKind)
	if o.servFile != "" {
		f, err := os.Open(o.servFile)
		if err != nil {
			return err
		}
		custom, err := services.ParseCustom(strings.TrimSuffix(filepath.Base(o.servFile), ".json"), f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Custom = custom
	}
	cfg.K = o.k
	cfg.KPrime = o.kPrime
	cfg.W2V.Dim = o.dim
	cfg.W2V.Window = o.window
	cfg.W2V.Epochs = o.epochs
	cfg.W2V.Seed = o.seed

	g, err := core.Generate(tr.Cut(cfg.MinPackets), o.evalDays, gt, cfg, core.TrainOpts{Context: ctx})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Println("training interrupted; nothing written")
		}
		return err
	}
	fmt.Printf("trained: vocab %d, %d skip-grams, %s\n",
		g.Emb.Model.Vocab.Size(), g.Emb.SkipGrams, g.Emb.TrainTime.Round(1e6))

	if o.modelOut != "" {
		if err := writeModelFile(o.modelOut, g.Emb.Model, o.saveWrap); err != nil {
			return err
		}
		fmt.Printf("saved model to %s\n", o.modelOut)
	}

	fmt.Printf("evaluation window: final %d day(s), %d senders in space, coverage %.1f%%\n",
		o.evalDays, g.Space.Len(), g.Coverage*100)
	fmt.Printf("\n-- semi-supervised %d-NN (Leave-One-Out) --\n%s", o.k, core.Evaluate(g.Space, gt, o.k))
	v := g.View
	fmt.Printf("\n-- unsupervised clustering (k'=%d + Louvain) --\n", o.kPrime)
	fmt.Printf("clusters: %d, modularity: %.3f\n", v.Clusters, v.Modularity)
	if v.Err != nil {
		return v.Err
	}
	for _, p := range v.Profiles(g.Tally) {
		if len(p.Senders) < 3 {
			continue
		}
		fmt.Printf("C%-3d %5d senders  %4d ports  sil %5.2f  %s\n",
			p.Cluster, len(p.Senders), p.Ports, p.AvgSil, p.Describe(labels.Unknown))
	}
	return nil
}
