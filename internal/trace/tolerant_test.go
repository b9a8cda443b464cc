package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/robust/faultio"
)

const csvHdrLine = "ts,src_ip,dst_ip,dst_port,proto,mirai"

// readAll reads in through ReadCSV under budget and returns its events.
func readAll(in string, budget robust.Budget) ([]Event, *robust.IngestReport, error) {
	tr, rep, err := ReadCSV(strings.NewReader(in), budget)
	if err != nil {
		return nil, rep, err
	}
	return tr.Events, rep, nil
}

func TestStreamCSVEmptyFile(t *testing.T) {
	if _, _, err := readAll("", robust.Budget{}); err == nil {
		t.Fatal("empty file must fail in strict mode (no header)")
	}
	if _, _, err := readAll("", robust.DefaultBudget()); err == nil {
		t.Fatal("empty file must fail even under a budget: missing header is a wrong file")
	}
}

func TestStreamCSVHeaderOnly(t *testing.T) {
	for _, in := range []string{csvHdrLine, csvHdrLine + "\n"} {
		events, _, err := readAll(in, robust.Budget{})
		if err != nil {
			t.Fatalf("header-only strict: %v", err)
		}
		if len(events) != 0 {
			t.Fatalf("header-only produced %d events", len(events))
		}
		_, rep, err := readAll(in, robust.DefaultBudget())
		if err != nil || rep.Read() != 0 || rep.Skipped() != 0 {
			t.Fatalf("header-only budgeted: rep=%+v err=%v", rep, err)
		}
	}
}

func TestStreamCSVCRLF(t *testing.T) {
	in := csvHdrLine + "\r\n" +
		"100,1.1.1.1,198.18.0.1,23,tcp,0\r\n" +
		"200,2.2.2.2,198.18.0.2,445,tcp,1\r\n"
	events, _, err := readAll(in, robust.Budget{})
	if err != nil {
		t.Fatalf("CRLF strict: %v", err)
	}
	if len(events) != 2 || events[0].Ts != 100 || !events[1].Mirai {
		t.Fatalf("CRLF events = %+v", events)
	}
	_, rep, err := readAll(in, robust.DefaultBudget())
	if err != nil || rep.Read() != 2 || rep.Skipped() != 0 {
		t.Fatalf("CRLF budgeted: rep=%+v err=%v", rep, err)
	}
}

func TestStreamCSVTrailingBlankLine(t *testing.T) {
	in := csvHdrLine + "\n100,1.1.1.1,198.18.0.1,23,tcp,0\n\n"
	events, _, err := readAll(in, robust.Budget{})
	if err != nil || len(events) != 1 {
		t.Fatalf("trailing blank strict: %d events, %v", len(events), err)
	}
	_, rep, err := readAll(in, robust.Budget{MaxErrors: 1})
	if err != nil || rep.Read() != 1 || rep.Skipped() != 0 {
		t.Fatalf("trailing blank budgeted: rep=%+v err=%v", rep, err)
	}
}

func TestStreamCSVMidFileGarbage(t *testing.T) {
	in := csvHdrLine + "\n" +
		"100,1.1.1.1,198.18.0.1,23,tcp,0\n" +
		"total garbage here\n" + // wrong field count
		"xxx,2.2.2.2,198.18.0.2,445,tcp,0\n" + // right shape, bad timestamp
		"300,3.3.3.3,198.18.0.3,80,tcp,0\n"

	// Strict: aborts on the first garbage line.
	if _, _, err := readAll(in, robust.Budget{}); err == nil {
		t.Fatal("mid-file garbage must fail in strict mode")
	}

	// Budgeted: both bad lines are skipped, the good ones survive.
	events, rep, err := readAll(in, robust.Budget{MaxErrors: 10})
	if err != nil {
		t.Fatalf("budgeted scan: %v", err)
	}
	if rep.Read() != 2 || rep.Skipped() != 2 {
		t.Fatalf("rep = %+v, want 2 read / 2 skipped", rep)
	}
	if len(rep.Errors()) != 2 {
		t.Fatalf("sample errors = %v", rep.Errors())
	}
	if len(events) != 2 || events[0].Ts != 100 || events[1].Ts != 300 {
		t.Fatalf("events = %+v", events)
	}

	// A budget of one error is blown by the second bad line.
	_, _, err = readAll(in, robust.Budget{MaxErrors: 1})
	if !errors.Is(err, robust.ErrBudgetExceeded) {
		t.Fatalf("exhausted budget error = %v", err)
	}
}

func TestReadCSVTolerantEqualsManualClean(t *testing.T) {
	// The headline fault-injection property: tolerant ingestion of a dirty
	// trace must equal ingesting the same trace with the dirty rows removed,
	// so everything downstream (corpus, vocabulary, model) is identical.
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	dirty := make([]string, len(lines))
	copy(dirty, lines)
	dirty[2] = "garbage,in,the,middle,of,capture"
	dirty[4] = "not a csv line at all"
	clean := append([]string{lines[0]}, lines[1], lines[3])
	clean = append(clean, lines[5:]...)

	got, rep, err := readAll(strings.Join(dirty, "\n")+"\n", robust.Budget{MaxErrors: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped() != 2 {
		t.Fatalf("skipped = %d", rep.Skipped())
	}
	want, _, err := readAll(strings.Join(clean, "\n")+"\n", robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadCSVTolerantCorruptedBytes(t *testing.T) {
	// Random byte corruption via the fault injector: the budgeted reader
	// skips the damaged lines and keeps the rest.
	tr := New(manyEvents(200))
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	hdrLen := int64(len(csvHdrLine) + 1)
	// Damage a byte every ~150 bytes, past the header.
	r := faultio.Corrupt(bytes.NewReader(buf.Bytes()), hdrLen+40, 150, 0x04)
	got, rep, err := ReadCSV(r, robust.Budget{MaxRate: 0.5, MinSample: 10})
	if err != nil {
		t.Fatalf("budgeted ingest of corrupted stream: %v (report %s)", err, rep.String())
	}
	if rep.Read() == 0 {
		t.Fatal("nothing survived corruption")
	}
	if rep.Read()+rep.Skipped() < 150 {
		t.Fatalf("accounting lost rows: read %d + skipped %d", rep.Read(), rep.Skipped())
	}
	if got.Len() != int(rep.Read()) {
		t.Fatalf("trace len %d != read %d", got.Len(), rep.Read())
	}
}

func TestStreamCSVStallingSource(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := faultio.Stall(bytes.NewReader(buf.Bytes()), 32, time.Millisecond)
	_, rep, err := ReadCSV(r, robust.Budget{MaxErrors: 1})
	if err != nil || int(rep.Read()) != tr.Len() || rep.Skipped() != 0 {
		t.Fatalf("stalling source: read %d, skipped %d, %v", rep.Read(), rep.Skipped(), err)
	}
}

func TestReadPCAPTolerantTruncated(t *testing.T) {
	tr := New(manyEvents(50))
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	// Cut the capture mid-record: keep the global header plus 10.5 records'
	// worth of bytes (each synthesised TCP frame is 16 hdr + 54 data bytes).
	cut := faultio.Truncate(bytes.NewReader(buf.Bytes()), 24+10*(16+54)+30)
	got, rep, err := ReadPCAP(cut, robust.DefaultBudget())
	if err != nil {
		t.Fatalf("tolerant truncated ingest: %v", err)
	}
	if !rep.Truncated() {
		t.Fatal("report must flag the truncation")
	}
	found := false
	for _, msg := range rep.Errors() {
		if strings.Contains(msg, "truncated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("truncation error missing from report: %v", rep.Errors())
	}
	if got.Len() != 10 || rep.Read() != 10 {
		t.Fatalf("intact prefix = %d events (read %d), want 10", got.Len(), rep.Read())
	}
	for i, e := range got.Events {
		if e != tr.Events[i] {
			t.Fatalf("prefix event %d: %+v != %+v", i, e, tr.Events[i])
		}
	}

	// A strict budget must refuse the same capture.
	cut2 := faultio.Truncate(bytes.NewReader(buf.Bytes()), 24+10*(16+54)+30)
	if _, _, err := ReadPCAP(cut2, robust.Budget{}); err == nil {
		t.Fatal("strict ReadPCAP must fail on a truncated capture")
	}
}

// garbageCapture is sampleTrace as a capture followed by two well-framed
// records whose payloads are not decodable frames.
func garbageCapture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleTrace().WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	// Record header: ts=1, frac=0, caplen=origlen=6; payload is junk.
	for i := 0; i < 2; i++ {
		buf.Write([]byte{
			1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 6, 0, 0, 0,
			0xde, 0xad, 0xbe, 0xef, 0x00, byte(i),
		})
	}
	return buf.Bytes()
}

func TestReadPCAPTolerantGarbagePackets(t *testing.T) {
	// The budgeted reader skips the junk frames and keeps the real ones.
	got, rep, err := ReadPCAP(bytes.NewReader(garbageCapture(t)), robust.Budget{MaxErrors: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped() != 2 {
		t.Fatalf("skipped = %d, want 2 garbage frames", rep.Skipped())
	}
	if got.Len() != sampleTrace().Len() {
		t.Fatalf("kept %d events, want %d", got.Len(), sampleTrace().Len())
	}
}

// TestReadFilePCAPBudgetMonotone: a bigger budget never refuses a capture a
// smaller one accepts. Two undecodable frames are two charges: a strict
// read and a budget of one refuse the file, a budget of two or more reads
// its six events.
func TestReadFilePCAPBudgetMonotone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.pcap")
	if err := os.WriteFile(path, garbageCapture(t), 0o644); err != nil {
		t.Fatal(err)
	}
	accepted := false
	for maxErr := int64(0); maxErr <= 3; maxErr++ {
		tr, rep, err := ReadFile(path, maxErr)
		if accepted && err != nil {
			t.Errorf("maxErr %d refuses what a smaller budget accepted: %v", maxErr, err)
		}
		if want := maxErr >= 2; (err == nil) != want {
			t.Errorf("maxErr %d: accepted %v, want %v (%v)", maxErr, err == nil, want, err)
		}
		if err == nil {
			accepted = true
			if tr.Len() != 6 || rep.Read() != 6 || rep.Skipped() != 2 {
				t.Errorf("maxErr %d: %d events, %s; want 6 read, 2 skipped", maxErr, tr.Len(), rep)
			}
		}
	}
}

// manyEvents builds n TCP events over 50 repeating senders so the CSV is
// long enough for byte-level fault injection to hit many different lines.
func manyEvents(n int) []Event {
	events := make([]Event, n)
	base := ip("10.1.2.3")
	for i := range events {
		events[i] = Event{
			Ts:    day0 + int64(i)*7,
			Src:   base + netutil.IPv4(i%50),
			Dst:   ip("198.18.0.9"),
			Port:  23,
			Proto: packet.IPProtocolTCP,
		}
	}
	return events
}
