package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// referenceWordLabels is the resolver core.Evaluate used before the view
// existed, kept verbatim as the oracle.
func referenceWordLabels(space *embed.Space, set *labels.Set) map[string]string {
	out := make(map[string]string, space.Len())
	for _, w := range space.Words {
		ip, err := netutil.ParseIPv4(w)
		if err != nil {
			continue
		}
		out[w] = set.Class(ip)
	}
	return out
}

// viewFixture is a hand-made space holding the pad token, a non-IP word, a
// fingerprinted Mirai sender, a feed-labeled one and an unlabeled one.
func viewFixture(t *testing.T) (*embed.Space, *labels.Set, *trace.Trace) {
	t.Helper()
	ip := netutil.MustParseIPv4
	ev := func(ts int64, src string, port uint16, mirai bool) trace.Event {
		return trace.Event{Ts: ts, Src: ip(src), Dst: ip("198.18.0.1"), Port: port, Proto: packet.IPProtocolTCP, Mirai: mirai}
	}
	tr := trace.New([]trace.Event{
		ev(0, "1.1.1.1", 23, true),
		ev(1, "2.2.2.2", 443, false),
		ev(2, "3.3.3.3", 22, false),
		ev(3, "1.1.1.2", 23, true),
	})
	gt := labels.Build(tr, map[string][]netutil.IPv4{"censys": {ip("2.2.2.2")}})
	space, err := embed.New(
		[]string{"NULL", "1.1.1.1", "svc:telnet", "2.2.2.2", "3.3.3.3", "1.1.1.2"},
		[][]float32{{1, 0, 0}, {0.9, 0.1, 0}, {0, 1, 0}, {0, 0.9, 0.1}, {0, 0, 1}, {0.8, 0.2, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return space, gt, tr
}

// TestViewLabelTable: the view's table is the old wordLabels — one entry
// per IPv4-shaped word, Unknown for unlabeled senders, the pad token and
// non-IP words skipped — and it is what Evaluate and Predictions read.
// (Takes over labels.TestWordLabels: fingerprint → mirai, no label →
// Unknown.)
func TestViewLabelTable(t *testing.T) {
	space, gt, _ := viewFixture(t)
	v := NewView(space, gt, 2, 1)
	want := map[string]string{
		"1.1.1.1": labels.MiraiClass, "1.1.1.2": labels.MiraiClass,
		"2.2.2.2": "censys", "3.3.3.3": labels.Unknown,
	}
	if !reflect.DeepEqual(v.Labels, want) {
		t.Fatalf("view labels = %v, want %v", v.Labels, want)
	}
	if ref := referenceWordLabels(space, gt); !reflect.DeepEqual(v.Labels, ref) {
		t.Fatalf("view labels = %v, reference wordLabels = %v", v.Labels, ref)
	}
	if !reflect.DeepEqual(Labels(space, gt), v.Labels) {
		t.Fatal("Labels and NewView disagree")
	}
	for word, want := range map[string]string{
		"1.1.1.1": labels.MiraiClass, "2.2.2.2": "censys",
		"3.3.3.3": "", // labels.Unknown
		"NULL":    "", "svc:telnet": "", "9.9.9.9": "",
	} {
		if got := v.GateClass(word); got != want {
			t.Errorf("GateClass(%q) = %q, want %q", word, got, want)
		}
	}
}

// TestViewIsTheStagesItReplaces: one NewView equals Cluster + Silhouette +
// Inspect run by hand with the same arguments, on a trained space.
func TestViewIsTheStagesItReplaces(t *testing.T) {
	out := smallSim(t)
	emb, err := TrainEmbedding(out.Trace, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	gt := labels.Build(out.Trace, out.Feeds)
	space, _ := emb.EvalSpace(out.Trace.LastDays(1), nil)

	v := NewView(space, gt, 3, 1)
	if v.Err != nil {
		t.Fatal(v.Err)
	}
	cl := Cluster(space, 3, 1)
	// Louvain's modularity sums in map order: equal to rounding, not bitwise.
	if !reflect.DeepEqual(v.Assign, cl.Assign) || v.Clusters != cl.Clusters || math.Abs(v.Modularity-cl.Modularity) > 1e-9 {
		t.Fatal("view clustering differs from core.Cluster with the same arguments")
	}
	sil, err := cluster.Silhouette(space, cl.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Sil, sil) {
		t.Fatal("view silhouette differs from cluster.Silhouette on its assignment")
	}
	want := cluster.Inspect(out.Trace, space.Words, cl.Assign, sil, referenceWordLabels(space, gt), labels.Unknown)
	if got := v.Profiles(cluster.TallyWords(out.Trace, space.Words)); !reflect.DeepEqual(got, want) {
		t.Fatal("view profiles differ from cluster.Inspect over the same inputs")
	}
}

// TestViewRefusedSilhouette: a space the metric cannot score keeps its
// labels and assignment, carries the error, and has no profiles.
func TestViewRefusedSilhouette(t *testing.T) {
	_, gt, tr := viewFixture(t)
	nan := float32(math.NaN())
	space, err := embed.New(
		[]string{"1.1.1.1", "2.2.2.2", "3.3.3.3"},
		[][]float32{{1, 0}, {nan, 1}, {0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(space, gt, 1, 1)
	if !errors.Is(v.Err, cluster.ErrBadInput) || v.Sil != nil {
		t.Fatalf("Err = %v, Sil = %v; want ErrBadInput and no scores", v.Err, v.Sil)
	}
	if len(v.Assign) != space.Len() || len(v.Labels) != 3 {
		t.Fatalf("assign %v / labels %v must survive a refused silhouette", v.Assign, v.Labels)
	}
	if p := v.Profiles(cluster.TallyWords(tr, space.Words)); p != nil {
		t.Fatalf("profiles of an unscored view = %v, want none", p)
	}
}

// TestViewTinySpaces: the daemon builds a view of whatever the eval window
// holds, so zero and one row must not trip the graph or Louvain.
func TestViewTinySpaces(t *testing.T) {
	_, gt, _ := viewFixture(t)
	for _, words := range [][]string{nil, {"1.1.1.1"}} {
		vecs := make([][]float32, len(words))
		for i := range vecs {
			vecs[i] = []float32{1, 0}
		}
		space, err := embed.New(words, vecs)
		if err != nil {
			t.Fatal(err)
		}
		v := NewView(space, gt, 3, 1)
		if v.Err != nil || len(v.Assign) != len(words) || len(v.Sil) != len(words) {
			t.Fatalf("%d rows: assign %v sil %v err %v", len(words), v.Assign, v.Sil, v.Err)
		}
	}
}
