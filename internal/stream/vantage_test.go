package stream

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/trace"
)

// vantageOf collects src → vantage from a snapshot.
func vantageOf(tr *trace.Trace) map[string]string {
	m := map[string]string{}
	for _, e := range tr.Events {
		m[e.Src.String()] = e.Vantage.String()
	}
	return m
}

// TestIngestorVantageTagging: one listener receiving a mix of tagged and
// untagged lines applies the ingestor's default tag only to the untagged
// ones; explicit per-line tags win.
func TestIngestorVantageTagging(t *testing.T) {
	in, addr := startTCP(t, Config{Vantage: trace.MustVantage("north"), Budget: robust.Budget{MaxErrors: 10}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s\n", line(1, "1.1.1.1"))       // untagged → default
	fmt.Fprintf(conn, "%s,south\n", line(2, "2.2.2.2")) // tagged → kept
	fmt.Fprintf(conn, "2,3.3.3.3,10.0.0.1,23,tcp,0,\n") // empty tag → default
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() == 3 }, "3 events in window")
	got := vantageOf(in.Window().Snapshot())
	want := map[string]string{"1.1.1.1": "north", "2.2.2.2": "south", "3.3.3.3": "north"}
	for src, v := range want {
		if got[src] != v {
			t.Errorf("vantage[%s] = %q, want %q", src, got[src], v)
		}
	}
}

// TestIngestorVantageNoDefault: without a configured default, untagged
// lines stay untagged — nothing invents provenance.
func TestIngestorVantageNoDefault(t *testing.T) {
	in, addr := startTCP(t, Config{Budget: robust.Budget{MaxErrors: 10}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s\n%s,west\n", line(1, "1.1.1.1"), line(2, "2.2.2.2"))
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() == 2 }, "2 events in window")
	got := vantageOf(in.Window().Snapshot())
	if got["1.1.1.1"] != "" || got["2.2.2.2"] != "west" {
		t.Fatalf("vantages = %v", got)
	}
}

// TestWindowVantageFlushRebootSeed: vantage tags survive the window
// snapshot, its CSV form, and a re-seed into a fresh window — the path a
// captured window takes when it comes back as a daemon's -in base trace.
func TestWindowVantageFlushRebootSeed(t *testing.T) {
	w := NewWindow(WindowConfig{})
	mk := func(ts int64, src, vantage string) trace.Event {
		e, err := trace.ParseCSVLine(fmt.Sprintf("%d,%s,10.0.0.1,23,tcp,0", ts, src))
		if err != nil {
			t.Fatal(err)
		}
		e.Vantage = trace.MustVantage(vantage)
		return e
	}
	w.Add(mk(1, "1.1.1.1", "north"))
	w.Add(mk(2, "2.2.2.2", "south"))
	w.Add(mk(3, "3.3.3.3", ""))

	var buf bytes.Buffer
	if err := w.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Reboot: seed a fresh window from the file, as startIngest does with -in.
	seed, _, err := trace.ReadCSV(bytes.NewReader(buf.Bytes()), robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWindow(WindowConfig{})
	w2.AddBatch(seed.Events)

	got := vantageOf(w2.Snapshot())
	want := map[string]string{"1.1.1.1": "north", "2.2.2.2": "south", "3.3.3.3": ""}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, src := range keys {
		if got[src] != want[src] {
			t.Errorf("after reboot seed: vantage[%s] = %q, want %q", src, got[src], want[src])
		}
	}
	if w2.Len() != 3 {
		t.Fatalf("reboot window holds %d events, want 3", w2.Len())
	}
}

// TestIngestorVantageOnReaderSource: the Consume (io.Reader) source path
// shares the tagging behaviour of the wire sources.
func TestIngestorVantageOnReaderSource(t *testing.T) {
	in := New(Config{Vantage: trace.MustVantage("east"), Budget: robust.Budget{MaxErrors: 10}})
	defer in.Close()
	input := trace.CSVHeaderLine + "\n" + line(1, "1.1.1.1") + "\n" + line(2, "2.2.2.2") + ",far\n"
	if err := in.Consume(bytes.NewReader([]byte(input)), "rdr"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() == 2 }, "2 events in window")
	got := vantageOf(in.Window().Snapshot())
	if got["1.1.1.1"] != "east" || got["2.2.2.2"] != "far" {
		t.Fatalf("vantages = %v", got)
	}
}

// TestFileAndFeedReadWriteCSVAlike: the same WriteCSV bytes read as a file
// (trace.ReadCSV) and as a live feed (Consume; sockets and -follow parse
// their lines the same way) give the same events: an untagged row, a plain
// tag, and tags holding a quote or starting with a space, which the format
// carries literally.
func TestFileAndFeedReadWriteCSVAlike(t *testing.T) {
	mk := func(ts int64, src, vantage string) trace.Event {
		e, err := trace.ParseCSVLine(fmt.Sprintf("%d,%s,10.0.0.1,23,tcp,0", ts, src))
		if err != nil {
			t.Fatal(err)
		}
		e.Vantage = trace.MustVantage(vantage)
		return e
	}
	want := []trace.Event{mk(1, "1.1.1.1", ""), mk(2, "2.2.2.2", "north"), mk(3, "3.3.3.3", `a"b`), mk(4, "4.4.4.4", " lead")}
	var buf bytes.Buffer
	if err := trace.New(slices.Clone(want)).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	fromFile, _, err := trace.ReadCSV(bytes.NewReader(buf.Bytes()), robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	in := New(Config{})
	defer in.Close()
	if err := in.Consume(bytes.NewReader(buf.Bytes()), "feed"); err != nil {
		t.Fatal(err)
	}
	in.Close()
	fromFeed := in.Window().Snapshot().Events
	if !slices.Equal(fromFile.Events, want) || !slices.Equal(fromFeed, want) {
		t.Fatalf("WriteCSV bytes %q\nread as a file: %v\nread as a feed: %v\nwant: %v", buf.String(), fromFile.Events, fromFeed, want)
	}
}
