package apiserver

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// viewFixture is a synthetic space with one labeled cohort, over an empty
// trace.
func viewFixture(t *testing.T) (*core.View, *labels.Set, *trace.Trace) {
	t.Helper()
	space := syntheticSpace(t, 64)
	var feed []netutil.IPv4
	for i := 0; i < space.Len(); i += 8 {
		feed = append(feed, netutil.MustParseIPv4(ipWord(i)))
	}
	tr := &trace.Trace{}
	gt := labels.Build(tr, map[string][]netutil.IPv4{"cohort0": feed})
	return core.NewView(space, gt, 3, 1), gt, tr
}

// TestConfigViewServedVerbatim: the server does not re-derive what it is
// handed. An assignment Louvain would never produce — rows split by index
// parity — comes back row for row on /v1/sender and as two clusters of 32 on
// /v1/clusters, with the view's own silhouettes.
func TestConfigViewServedVerbatim(t *testing.T) {
	built, _, tr := viewFixture(t)
	space := built.Space
	parity := make([]int, space.Len())
	for i := range parity {
		parity[i] = i % 2
	}
	sil, err := cluster.Silhouette(space, parity)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{View: &core.View{Space: space, Labels: built.Labels, Assign: parity, Clusters: 2, Sil: sil}, Trace: tr})

	for _, row := range []int{0, 1, 8, 63} {
		var got SenderResponse
		if err := json.Unmarshal(serve(srv, "/v1/sender?ip="+ipWord(row)).Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		wantClass := labels.Unknown
		if row%8 == 0 {
			wantClass = "cohort0"
		}
		if got.Cluster != row%2 || got.Class != wantClass {
			t.Errorf("row %d: /v1/sender = %+v, want cluster %d class %s", row, got, row%2, wantClass)
		}
	}
	var clusters []ClusterEntry
	if err := json.Unmarshal(serve(srv, "/v1/clusters").Body.Bytes(), &clusters); err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 || clusters[0].Senders != 32 || clusters[1].Senders != 32 {
		t.Fatalf("/v1/clusters = %+v, want the two parity halves", clusters)
	}
	for _, c := range clusters {
		var want float64
		for row := c.Cluster; row < space.Len(); row += 2 {
			want += sil[row] / 32
		}
		if diff := c.AvgSil - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("cluster %d avg_silhouette = %v, want the handed-in view's %v", c.Cluster, c.AvgSil, want)
		}
	}
}

// TestNilViewBuildsTheSameView: a Config without a View answers byte for
// byte what one carrying core.NewView of the same Space/GT/KPrime/Seed does —
// one constructor, no second algorithm behind the nil.
func TestNilViewBuildsTheSameView(t *testing.T) {
	built, gt, tr := viewFixture(t)
	fromFields := New(Config{Space: built.Space, GT: gt, Trace: tr, KPrime: 3, Seed: 1})
	fromView := New(Config{View: built, Trace: tr})
	for _, target := range []string{
		"/v1/clusters", "/v1/clusters?min=0",
		"/v1/sender?ip=" + ipWord(0), "/v1/sender?ip=" + ipWord(13),
		"/v1/similar?ip=" + ipWord(5) + "&k=5",
		"/v1/classify?ip=" + ipWord(9), "/v1/classify?ip=" + ipWord(8) + "&k=3",
	} {
		a, b := serve(fromFields, target), serve(fromView, target)
		if a.Code != 200 || a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Errorf("%s: nil View answered %d %q, explicit View %d %q", target, a.Code, a.Body, b.Code, b.Body)
		}
	}
}

// TestRefusedViewOneMessage: a view whose silhouette was refused is one
// cause with one message — New logs it once, /v1/clusters answers [],
// /v1/sender answers cluster -1, and similarity and classification still
// serve.
func TestRefusedViewOneMessage(t *testing.T) {
	built, _, tr := viewFixture(t)
	refused := *built
	refused.Sil, refused.Err = nil, fmt.Errorf("%w: row 3 is not finite", cluster.ErrBadInput)
	var logged []string
	srv := New(Config{View: &refused, Trace: tr, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if len(logged) != 1 || !strings.Contains(logged[0], "clusters unavailable") || !strings.Contains(logged[0], "row 3 is not finite") {
		t.Fatalf("logged %q, want the refusal exactly once", logged)
	}
	if body := strings.TrimSpace(serve(srv, "/v1/clusters").Body.String()); body != "[]" {
		t.Errorf("/v1/clusters = %s, want []", body)
	}
	var sender SenderResponse
	if err := json.Unmarshal(serve(srv, "/v1/sender?ip="+ipWord(8)).Body.Bytes(), &sender); err != nil {
		t.Fatal(err)
	}
	if sender.Cluster != -1 || sender.Class != "cohort0" {
		t.Errorf("/v1/sender = %+v, want cluster -1 and the label still resolved", sender)
	}
	for _, target := range []string{"/v1/similar?ip=" + ipWord(8), "/v1/classify?ip=" + ipWord(9)} {
		if rec := serve(srv, target); rec.Code != 200 {
			t.Errorf("%s = %d, want 200 without clusters", target, rec.Code)
		}
	}
}
