package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/netutil"
)

// fakeVantage is an in-process vantage daemon: a real interner behind
// the real InternHandler, plus canned readiness and classify answers. Its
// state is swappable mid-test to simulate retrains and restarts.
type fakeVantage struct {
	name string

	mu       sync.Mutex
	tab      *corpus.Interner
	epoch    string
	gen      string
	ready    bool
	classify map[string]apiserver.ClassifyResponse

	srv *httptest.Server
}

func newFakeVantage(t *testing.T, name string, senders ...string) *fakeVantage {
	t.Helper()
	v := &fakeVantage{
		name: name, tab: interner(senders...), epoch: name + "-epoch-1", gen: "v000001",
		ready: true, classify: map[string]apiserver.ClassifyResponse{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz/ready", func(w http.ResponseWriter, _ *http.Request) {
		v.mu.Lock()
		ready := v.ready
		v.mu.Unlock()
		if !ready {
			http.Error(w, `{"error":"not ready"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("GET /v1/intern", func(w http.ResponseWriter, r *http.Request) {
		v.mu.Lock()
		src := InternSource{
			Vantage: v.name, Epoch: v.epoch, Table: v.tab,
			Generation: func() string { return v.gen },
		}
		v.mu.Unlock()
		NewInternHandler(src).ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		v.mu.Lock()
		resp, ok := v.classify[r.URL.Query().Get("ip")]
		v.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"unknown"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
	v.srv = httptest.NewServer(mux)
	t.Cleanup(v.srv.Close)
	return v
}

// restart simulates a kill -9 + reboot: a fresh interner (ids re-minted in
// a different order), a new epoch, a new generation.
func (v *fakeVantage) restart(senders ...string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tab = interner(senders...)
	v.epoch += "'"
	v.gen = "v000002"
}

func (v *fakeVantage) answer(ip, class string, votes int, sim float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.classify[ip] = apiserver.ClassifyResponse{IP: ip, Class: class, Support: votes, AvgSim: sim}
}

// interner returns a fresh sender table holding senders in id order.
func interner(senders ...string) *corpus.Interner {
	tab := corpus.NewInterner()
	for _, s := range senders {
		tab.Intern(netutil.MustParseIPv4(s))
	}
	return tab
}

func testAggregator(t *testing.T, vs ...*fakeVantage) *Aggregator {
	t.Helper()
	cfg := Config{Poll: 50 * time.Millisecond, Timeout: 2 * time.Second}
	for _, v := range vs {
		cfg.Vantages = append(cfg.Vantages, VantageConfig{Name: v.name, URL: v.srv.URL})
	}
	a, err := NewAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func getJSON(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// TestInternHandlerPagination: pages tile the table exactly, limits are
// honoured, and offsets past the end return an empty page with the right
// Total.
func TestInternHandlerPagination(t *testing.T) {
	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("10.0.0.%d", i))
	}
	h := NewInternHandler(InternSource{Vantage: "v", Epoch: "e", Table: interner(want...)})

	var got []string
	for off := 0; ; {
		var page InternPage
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/intern?offset=%d&limit=3", off), nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if page.Total != 10 || page.Offset != off {
			t.Fatalf("page = %+v", page)
		}
		got = append(got, page.Senders...)
		off += len(page.Senders)
		if off >= page.Total {
			break
		}
		if len(page.Senders) != 3 {
			t.Fatalf("interior page holds %d senders, want 3", len(page.Senders))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged senders = %v, want %v", got, want)
	}
	// Past the end, up to the largest offset: empty page, correct total.
	for _, off := range []string{"99", "9223372036854775807"} {
		var page InternPage
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/intern?offset="+off, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("offset=%s: %v", off, err)
		}
		if rec.Code != http.StatusOK || page.Total != 10 || page.Offset != 10 || len(page.Senders) != 0 {
			t.Fatalf("offset=%s: %d, page = %+v", off, rec.Code, page)
		}
	}
	// Bad params: 400.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/intern?offset=-1", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("offset=-1 -> %d, want 400", rec.Code)
	}
}

// TestInternHandlerStableMidRetrain: interning new senders between page
// fetches (what a concurrent retrain does) never shifts an already-served
// page — ids are append-only — and Total grows monotonically.
func TestInternHandlerStableMidRetrain(t *testing.T) {
	tab := interner("1.1.1.1", "2.2.2.2")
	h := NewInternHandler(InternSource{Vantage: "v", Epoch: "e", Table: tab})

	fetch := func(off, limit int) InternPage {
		var page InternPage
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/intern?offset=%d&limit=%d", off, limit), nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		return page
	}
	before := fetch(0, 2)
	// A "retrain" interns two more senders.
	tab.Intern(netutil.MustParseIPv4("3.3.3.3"))
	tab.Intern(netutil.MustParseIPv4("4.4.4.4"))
	after := fetch(0, 2)
	if !reflect.DeepEqual(before.Senders, after.Senders) {
		t.Fatalf("page 0 shifted mid-retrain: %v -> %v", before.Senders, after.Senders)
	}
	if before.Total != 2 || after.Total != 4 {
		t.Fatalf("totals = %d, %d; want 2, 4", before.Total, after.Total)
	}
	tail := fetch(2, 2)
	if !reflect.DeepEqual(tail.Senders, []string{"3.3.3.3", "4.4.4.4"}) {
		t.Fatalf("delta page = %v", tail.Senders)
	}
}

// TestClientSyncInternRestart: a delta sync against a restarted daemon
// (new epoch, re-minted ids) discards the stale mirror and rebuilds from
// offset zero.
func TestClientSyncInternRestart(t *testing.T) {
	v := newFakeVantage(t, "north", "1.1.1.1", "2.2.2.2")
	c := NewClient("north", v.srv.URL, ClientConfig{})

	mirror, page, err := c.SyncIntern(context.Background(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mirror, []string{"1.1.1.1", "2.2.2.2"}) {
		t.Fatalf("mirror = %v", mirror)
	}
	epoch := page.Epoch

	// Restart with a different id order and one new sender.
	v.restart("2.2.2.2", "9.9.9.9", "1.1.1.1")
	mirror, page, err = c.SyncIntern(context.Background(), epoch, mirror)
	if err != nil {
		t.Fatal(err)
	}
	if page.Epoch == epoch {
		t.Fatal("epoch did not change across restart")
	}
	if !reflect.DeepEqual(mirror, []string{"2.2.2.2", "9.9.9.9", "1.1.1.1"}) {
		t.Fatalf("post-restart mirror = %v, want rebuilt from 0", mirror)
	}
}

// TestAggregatorClassifyMerge: answers from every admitted vantage merge by
// summed vote; the response names contributors (sorted) and vantages that
// lack the sender.
func TestAggregatorClassifyMerge(t *testing.T) {
	north := newFakeVantage(t, "north", "1.1.1.1")
	south := newFakeVantage(t, "south", "1.1.1.1")
	west := newFakeVantage(t, "west")
	north.answer("1.1.1.1", "mirai", 5, 0.9)
	south.answer("1.1.1.1", "spammer", 3, 0.8)

	a := testAggregator(t, north, south, west)
	a.PollNow(context.Background())

	var resp ClassifyResponse
	if code := getJSON(t, a, "/v1/federated/classify?ip=1.1.1.1", &resp); code != http.StatusOK {
		t.Fatalf("classify -> %d", code)
	}
	if resp.Class != "mirai" || resp.Votes != 5 {
		t.Fatalf("merged = %q/%d, want mirai/5", resp.Class, resp.Votes)
	}
	if len(resp.Vantages) != 2 || resp.Vantages[0].Vantage != "north" || resp.Vantages[1].Vantage != "south" {
		t.Fatalf("contributors = %+v", resp.Vantages)
	}
	if !reflect.DeepEqual(resp.Unknown, []string{"west"}) {
		t.Fatalf("unknown = %v", resp.Unknown)
	}
	if len(resp.DegradedReasons) != 0 {
		t.Fatalf("degraded = %v", resp.DegradedReasons)
	}
}

// TestAggregatorDegradedAndRecovery is the unit-level admission cycle: a
// vantage going down degrades (never errors) federated answers and is named
// in sorted degraded_reasons; after it restarts with a re-minted id space it
// is re-admitted only once generation and intern mirror are re-synced.
func TestAggregatorDegradedAndRecovery(t *testing.T) {
	north := newFakeVantage(t, "north", "1.1.1.1")
	south := newFakeVantage(t, "south", "1.1.1.1", "7.7.7.7")
	north.answer("1.1.1.1", "mirai", 4, 0.9)
	south.answer("1.1.1.1", "mirai", 2, 0.7)

	a := testAggregator(t, north, south)
	a.PollNow(context.Background())

	var ready map[string]any
	if code := getJSON(t, a, "/healthz/ready", &ready); code != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("ready -> %d %v", 0, ready)
	}

	// Kill south (connection-refused, the kill -9 shape).
	south.srv.CloseClientConnections()
	south.srv.Close()
	a.PollNow(context.Background())

	if code := getJSON(t, a, "/healthz/ready", &ready); code != http.StatusOK || ready["status"] != "degraded" {
		t.Fatalf("after kill: ready -> %v", ready)
	}
	reasons, _ := ready["degraded_reasons"].([]any)
	if len(reasons) != 1 || !sort.SliceIsSorted(reasons, func(i, j int) bool {
		return reasons[i].(string) < reasons[j].(string)
	}) {
		t.Fatalf("degraded_reasons = %v", reasons)
	}
	if r := reasons[0].(string); len(r) < len("vantage:south") || r[:len("vantage:south")] != "vantage:south" {
		t.Fatalf("degraded reason %q does not name the dead vantage", r)
	}

	// Queries still answer from the survivor, naming the hole.
	var resp ClassifyResponse
	if code := getJSON(t, a, "/v1/federated/classify?ip=1.1.1.1", &resp); code != http.StatusOK {
		t.Fatalf("degraded classify -> %d", code)
	}
	if resp.Class != "mirai" || len(resp.Vantages) != 1 || resp.Vantages[0].Vantage != "north" {
		t.Fatalf("degraded classify = %+v", resp)
	}
	if len(resp.DegradedReasons) != 1 {
		t.Fatalf("degraded classify reasons = %v", resp.DegradedReasons)
	}

	// Senders lookups keep answering from the last synced mirror.
	var snd SendersResponse
	getJSON(t, a, "/v1/federated/senders?ip=7.7.7.7", &snd)
	if !reflect.DeepEqual(snd.Vantages, []string{"south"}) || len(snd.DegradedReasons) != 1 {
		t.Fatalf("senders during outage = %+v", snd)
	}
}

// TestAggregatorAllDown: with no vantage admitted the aggregator stays up
// and sheds federated queries with 503, never a hang or a crash.
func TestAggregatorAllDown(t *testing.T) {
	north := newFakeVantage(t, "north", "1.1.1.1")
	a := testAggregator(t, north)
	north.srv.Close()
	a.PollNow(context.Background())

	if code := getJSON(t, a, "/healthz/ready", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("ready -> %d, want 503", code)
	}
	if code := getJSON(t, a, "/v1/federated/classify?ip=1.1.1.1", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("classify -> %d, want 503", code)
	}
	// senders still answers (local mirror is empty but well-defined).
	var snd SendersResponse
	if code := getJSON(t, a, "/v1/federated/senders?ip=1.1.1.1", &snd); code != http.StatusOK {
		t.Fatalf("senders -> %d", code)
	}
	if len(snd.Vantages) != 0 || len(snd.DegradedReasons) != 1 {
		t.Fatalf("senders = %+v", snd)
	}
}

// TestAggregatorReadmissionAfterRestart: a vantage that comes back with a
// re-minted id space is served only after the mirror is rebuilt — lookups
// reflect the new table, not the pre-crash one.
func TestAggregatorReadmissionAfterRestart(t *testing.T) {
	north := newFakeVantage(t, "north", "1.1.1.1", "2.2.2.2")
	a := testAggregator(t, north)
	a.PollNow(context.Background())

	var snd SendersResponse
	getJSON(t, a, "/v1/federated/senders?ip=2.2.2.2", &snd)
	if !reflect.DeepEqual(snd.Vantages, []string{"north"}) {
		t.Fatalf("pre-restart senders = %+v", snd)
	}

	// Restart: 2.2.2.2 is gone from the reborn window; 8.8.8.8 is new.
	north.restart("8.8.8.8", "1.1.1.1")
	a.PollNow(context.Background())

	getJSON(t, a, "/v1/federated/senders?ip=2.2.2.2", &snd)
	if len(snd.Vantages) != 0 {
		t.Fatalf("stale pre-crash sender still attributed: %+v", snd)
	}
	getJSON(t, a, "/v1/federated/senders?ip=8.8.8.8", &snd)
	if !reflect.DeepEqual(snd.Vantages, []string{"north"}) {
		t.Fatalf("post-restart sender missing: %+v", snd)
	}
	var vs []map[string]any
	getJSON(t, a, "/v1/federated/vantages", &vs)
	if len(vs) != 1 || vs[0]["status"] != "ready" || vs[0]["generation"] != "v000002" {
		t.Fatalf("vantage inventory = %+v", vs)
	}
}

// TestMergeAnswersDeterminism: ties break on similarity then class name, so
// the merged verdict never depends on map iteration order.
func TestMergeAnswersDeterminism(t *testing.T) {
	cases := []struct {
		answers []VantageAnswer
		class   string
		votes   int
	}{
		{nil, "", 0},
		{[]VantageAnswer{{Class: "a", Votes: 2}, {Class: "b", Votes: 3}}, "b", 3},
		{[]VantageAnswer{{Class: "a", Votes: 2, AvgSim: 0.5}, {Class: "b", Votes: 2, AvgSim: 0.9}}, "b", 2},
		{[]VantageAnswer{{Class: "b", Votes: 2, AvgSim: 0.5}, {Class: "a", Votes: 2, AvgSim: 0.5}}, "a", 2},
		{[]VantageAnswer{{Class: "x", Votes: 1}, {Class: "x", Votes: 4}, {Class: "y", Votes: 3}}, "x", 5},
	}
	for i, c := range cases {
		for rep := 0; rep < 8; rep++ { // map order shuffles across reps
			class, votes := MergeAnswers(c.answers)
			if class != c.class || votes != c.votes {
				t.Fatalf("case %d: merge = %q/%d, want %q/%d", i, class, votes, c.class, c.votes)
			}
		}
	}
}
