package trace

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
)

// tagged returns a small mixed trace: two vantage-tagged events and one
// untagged one.
func taggedTrace() *Trace {
	a, _ := ParseCSVLine("100,1.1.1.1,198.18.0.1,23,tcp,0,north")
	b, _ := ParseCSVLine("200,2.2.2.2,198.18.0.130,445,tcp,1,south")
	c, _ := ParseCSVLine("300,3.3.3.3,198.18.0.3,53,udp,0")
	return New([]Event{a, b, c})
}

// TestWriteCSVTaggedRoundTrip: a trace holding vantage tags writes the
// extended header and round-trips tags (and the untagged row's absence of
// one) exactly.
func TestWriteCSVTaggedRoundTrip(t *testing.T) {
	tr := taggedTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), CSVHeaderLineVantage+"\n") {
		t.Fatalf("tagged trace must write the extended header, got %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	got, _, err := ReadCSV(bytes.NewReader(buf.Bytes()), robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip %d events, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

// TestWriteCSVUntaggedUnchanged: a single-vantage trace keeps the
// historical six-column layout byte for byte.
func TestWriteCSVUntaggedUnchanged(t *testing.T) {
	e, _ := ParseCSVLine("100,1.1.1.1,198.18.0.1,23,tcp,0")
	var buf bytes.Buffer
	if err := New([]Event{e}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := CSVHeaderLine + "\n100,1.1.1.1,198.18.0.1,23,tcp,0\n"
	if buf.String() != want {
		t.Fatalf("untagged trace = %q, want %q", buf.String(), want)
	}
}

// TestReadCSVMixedFieldCounts: a file whose rows mix tagged and untagged
// layouts parses in strict mode — the shape the aggregator's merged
// flush files take.
func TestReadCSVMixedFieldCounts(t *testing.T) {
	in := CSVHeaderLineVantage + "\n" +
		"100,1.1.1.1,198.18.0.1,23,tcp,0,north\n" +
		"200,2.2.2.2,198.18.0.2,445,tcp,1\n"
	tr, _, err := ReadCSV(strings.NewReader(in), robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Events[0].Vantage.String() != "north" || tr.Events[1].Vantage != 0 {
		t.Fatalf("events = %+v", tr.Events)
	}
	// The historical header over tagged rows also parses.
	in = CSVHeaderLine + "\n" + "100,1.1.1.1,198.18.0.1,23,tcp,0,north\n"
	tr, _, err = ReadCSV(strings.NewReader(in), robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Events[0].Vantage.String() != "north" {
		t.Fatalf("events = %+v", tr.Events)
	}
}

// TestParseCSVLineBadVantage: separators inside a vantage tag would
// corrupt the line framing, so they are rejected at parse time.
func TestParseCSVLineBadVantage(t *testing.T) {
	if _, err := ParseCSVLine("100,1.1.1.1,198.18.0.1,23,tcp,0,a\rb"); err == nil {
		t.Fatal("vantage with embedded CR accepted")
	}
}

// TestStreamCSVTolerantTaggedTruncation: the partial-final-line truncation
// semantics hold for a seven-field file — one cut mid-record is a
// truncation, not a budget hit.
func TestStreamCSVTolerantTaggedTruncation(t *testing.T) {
	in := CSVHeaderLineVantage + "\n" +
		"100,1.1.1.1,198.18.0.1,23,tcp,0,north\n" +
		"200,2.2.2.2,198.18" // cut mid-record
	events, rep, err := readAll(in, robust.Budget{MaxErrors: 1})
	if err != nil {
		t.Fatalf("tolerant scan: %v", err)
	}
	if len(events) != 1 || events[0].Vantage.String() != "north" {
		t.Fatalf("intact prefix = %+v", events)
	}
	if !rep.Truncated() || rep.Skipped() != 0 {
		t.Fatalf("rep = %s, want truncation with no skips", rep)
	}
}

// emptyVantageTable forgets every interned name. Ids minted before it must
// not be used after it.
func emptyVantageTable() {
	vantages.Lock()
	vantages.ids = map[string]VantageID{"": 0}
	vantages.names = []string{""}
	vantages.Unlock()
}

// resetVantages empties the process-wide vantage table for a test that
// counts ids or fills it, and again afterwards so the tests that follow
// intern into a fresh one.
func resetVantages(t *testing.T) {
	t.Helper()
	emptyVantageTable()
	t.Cleanup(emptyVantageTable)
}

// TestInternVantage: a name has one id however it arrives, the untagged
// vantage is the zero id, and malformed names are refused without
// consuming an id.
func TestInternVantage(t *testing.T) {
	resetVantages(t)
	north, err := InternVantage("north")
	if err != nil || north == 0 {
		t.Fatalf("InternVantage(north) = %d, %v", north, err)
	}
	if again := MustVantage("north"); again != north {
		t.Fatalf("second intern minted %d, first %d", again, north)
	}
	if fromBytes, err := internVantageBytes([]byte("north")); err != nil || fromBytes != north {
		t.Fatalf("internVantageBytes(north) = %d, %v; want %d", fromBytes, err, north)
	}
	if north.String() != "north" || VantageID(0).String() != "" {
		t.Fatalf("names: %q, %q", north.String(), VantageID(0).String())
	}
	if id, err := InternVantage(""); err != nil || id != 0 {
		t.Fatalf("InternVantage(\"\") = %d, %v", id, err)
	}
	for _, bad := range []string{"a,b", "a\nb", "a\rb", strings.Repeat("x", MaxVantageLen+1)} {
		if id, err := InternVantage(bad); err == nil {
			t.Errorf("InternVantage(%q) = %d, want an error", bad, id)
		}
	}
	if _, err := InternVantage(strings.Repeat("x", MaxVantageLen)); err != nil {
		t.Errorf("a %d-byte name must be admitted: %v", MaxVantageLen, err)
	}
	if south := MustVantage("south"); south != north+2 {
		t.Errorf("refused names consumed ids: south = %d after north = %d and one long name", south, north)
	}
}

// TestVantageTableBounded: the table admits 65,535 names; the 65,536th is
// a malformed record on both decode paths — never an alias of an admitted
// name — while every admitted name keeps decoding to its own id.
func TestVantageTableBounded(t *testing.T) {
	resetVantages(t)
	name := func(i int) string { return fmt.Sprintf("t%05d", i) }
	for i := 1; i < maxVantages; i++ {
		id, err := InternVantage(name(i))
		if err != nil || int(id) != i {
			t.Fatalf("InternVantage(%s) = %d, %v", name(i), id, err)
		}
	}
	if id, err := InternVantage("one-too-many"); err == nil {
		t.Fatalf("the 65,536th name got id %d (%q)", id, id.String())
	}
	if e, err := ParseCSVLine("100,1.1.1.1,198.18.0.1,23,tcp,0,one-too-many"); err == nil {
		t.Fatalf("csv line with an inadmissible tag parsed to %+v (%q)", e, e.Vantage.String())
	}
	rec := Event{Ts: 1, Proto: packet.IPProtocolTCP}.AppendBinary(nil)
	rec = append(rec[:len(rec)-1], byte(len("one-too-many")))
	rec = append(rec, "one-too-many"...)
	if e, err := DecodeBinary(rec); err == nil {
		t.Fatalf("binary record with an inadmissible tag decoded to %+v (%q)", e, e.Vantage.String())
	}
	for _, i := range []int{1, 4242, maxVantages - 1} {
		e, err := ParseCSVLine("100,1.1.1.1,198.18.0.1,23,tcp,0," + name(i))
		if err != nil || int(e.Vantage) != i || e.Vantage.String() != name(i) {
			t.Fatalf("admitted tag %s: id %d (%q), %v", name(i), e.Vantage, e.Vantage.String(), err)
		}
		back, err := DecodeBinary(e.AppendBinary(nil))
		if err != nil || back != e {
			t.Fatalf("admitted tag %s over the binary codec: %+v, %v", name(i), back, err)
		}
	}
}

// TestVantageFormatsUnchanged pins every text and byte form of a tagged
// event to what the string-typed Event wrote (generated at the parent
// commit): the seven-column file, the line protocol and the binary record
// decode to the same events and re-encode byte for byte.
func TestVantageFormatsUnchanged(t *testing.T) {
	const file = "ts,src_ip,dst_ip,dst_port,proto,mirai,vantage\n" +
		"1700000000,203.0.113.7,198.18.0.42,23,tcp,1,telescope-west\n" +
		"1700000001,192.0.2.99,198.18.0.130,53,udp,0,\n" +
		"1700000002,203.0.113.7,198.18.0.1,0,icmp,0,n\n"
	lines := []string{
		"1700000000,203.0.113.7,198.18.0.42,23,tcp,1,telescope-west",
		"1700000001,192.0.2.99,198.18.0.130,53,udp,0",
		"1700000002,203.0.113.7,198.18.0.1,0,icmp,0,n",
	}
	records := []string{
		"00f1536500000000077100cb2a0012c6170006010e74656c6573636f70652d77657374",
		"01f1536500000000630200c0820012c63500110000",
		"02f1536500000000077100cb010012c600000100016e",
	}
	tr, _, err := ReadCSV(strings.NewReader(file), robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != file {
		t.Errorf("file re-encoded as %q, want %q", buf.String(), file)
	}
	for i, e := range tr.Events {
		if got := string(e.AppendCSV(nil)); got != lines[i] {
			t.Errorf("line %d = %q, want %q", i, got, lines[i])
		}
		if fromLine, err := ParseCSVLine(lines[i]); err != nil || fromLine != e {
			t.Errorf("line %d parsed to %+v, %v; want %+v", i, fromLine, err, e)
		}
		if got := hex.EncodeToString(e.AppendBinary(nil)); got != records[i] {
			t.Errorf("record %d = %s, want %s", i, got, records[i])
		}
		raw, _ := hex.DecodeString(records[i])
		if fromRec, err := DecodeBinary(raw); err != nil || fromRec != e {
			t.Errorf("record %d decoded to %+v, %v; want %+v", i, fromRec, err, e)
		}
	}
	if tr.Events[0].Vantage.String() != "telescope-west" || tr.Events[1].Vantage != 0 || tr.Events[2].Vantage.String() != "n" {
		t.Errorf("tags = %q, %q, %q", tr.Events[0].Vantage, tr.Events[1].Vantage, tr.Events[2].Vantage)
	}
}

// TestInternVantageConcurrent: ingest connections, the WAL consumer and the
// query path all reach the one table at once; every goroutine must see one
// id per name and the name back from the id.
func TestInternVantageConcurrent(t *testing.T) {
	resetVantages(t)
	const workers, names = 8, 200
	ids := make([][]VantageID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]VantageID, names)
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("v%03d", (i+w*31)%names)
				id, err := InternVantage(name)
				if err != nil || id.String() != name {
					t.Errorf("worker %d: InternVantage(%s) = %d (%q), %v", w, name, id, id.String(), err)
					return
				}
				if e, err := DecodeBinary(Event{Ts: 1, Proto: packet.IPProtocolTCP, Vantage: id}.AppendBinary(nil)); err != nil || e.Vantage != id {
					t.Errorf("worker %d: binary round trip of %s = %d, %v", w, name, e.Vantage, err)
					return
				}
				ids[w][(i+w*31)%names] = id
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(ids[w], ids[0]) {
			t.Fatalf("worker %d saw different ids than worker 0", w)
		}
	}
	if n := len(vantages.names); n != names+1 {
		t.Fatalf("table holds %d names, want %d", n-1, names)
	}
}
