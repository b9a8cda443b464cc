package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
)

// CSVHeaderLine is the header row of the CSV interchange format, mirroring
// the anonymised dataset released with the paper (timestamp, source,
// darknet destination, destination port, protocol) plus the Mirai
// fingerprint bit so labeled experiments don't need the raw payloads. The
// same format is the line protocol spoken by live stream sources (one
// record per line, header optional).
const CSVHeaderLine = "ts,src_ip,dst_ip,dst_port,proto,mirai"

// CSVHeaderLineVantage is the header row of the vantage-tagged variant.
// Writers pick it only when at least one event carries a tag, so
// single-vantage files keep the six-column layout.
const CSVHeaderLineVantage = CSVHeaderLine + ",vantage"

// Tagged reports whether any event carries a vantage tag.
func (t *Trace) Tagged() bool {
	for _, e := range t.Events {
		if e.Vantage != 0 {
			return true
		}
	}
	return false
}

// WriteCSV writes the trace in the repository's CSV interchange format, one
// AppendCSV line per event, through a 64 KiB buffer like ReadCSV's reader
// (the 4 KiB default costs a write call every ≈ 80 lines). A trace holding
// at least one vantage-tagged event is written with the extended
// seven-column header, and its untagged rows carry an empty seventh column;
// untagged traces keep the six-column layout.
func (t *Trace) WriteCSV(w io.Writer) error {
	tagged := t.Tagged()
	hdr := CSVHeaderLine + "\n"
	if tagged {
		hdr = CSVHeaderLineVantage + "\n"
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(hdr); err != nil {
		return err
	}
	var line []byte
	for _, e := range t.Events {
		line = e.AppendCSV(line[:0])
		if tagged && e.Vantage == 0 {
			line = append(line, ',')
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendCSV appends the event's CSV interchange line (without a trailing
// newline) to dst — the formatter WriteCSV and the live sources share. It
// allocates only if dst must grow (TestAppendCSVAllocs).
func (e Event) AppendCSV(dst []byte) []byte {
	dst = strconv.AppendInt(dst, e.Ts, 10)
	dst = append(dst, ',')
	dst = e.Src.AppendTo(dst)
	dst = append(dst, ',')
	dst = e.Dst.AppendTo(dst)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(e.Port), 10)
	dst = append(dst, ',')
	dst = append(dst, e.Proto.String()...)
	if e.Mirai {
		dst = append(dst, ",1"...)
	} else {
		dst = append(dst, ",0"...)
	}
	if e.Vantage != 0 {
		dst = append(dst, ',')
		dst = append(dst, e.Vantage.String()...)
	}
	return dst
}

// ReadCSV reads a trace in the CSV interchange format under an error budget
// and reports what the read saw. Events are re-sorted by timestamp.
//
// The first non-blank line is the header: six or seven comma-separated
// fields, the first "ts". A missing or malformed header is a wrong file and
// always an error. Every further line goes through ParseCSVLine, the parser
// the live sources use, so a file and a feed of the same bytes give the
// same events. The format has no quoting: a field is the bytes between two
// commas, taken literally. Blank lines and a trailing \r are ignored. A line
// that fails to parse is charged to the budget. A final line with no
// newline that fails to parse is a write cut short — a file still being
// written, an interrupted copy — so a non-strict budget records it as a
// truncation and keeps the intact prefix; a strict one refuses it like any
// other bad line.
func ReadCSV(r io.Reader, budget robust.Budget) (*Trace, *robust.IngestReport, error) {
	rep := &robust.IngestReport{}
	hint := eventsHint(r)
	br := bufio.NewReaderSize(r, 64<<10)
	var events []Event
	header := false
	for n := 1; ; n++ {
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull { // a line longer than the buffer: copy it out whole
			head := bytes.Clone(raw)
			raw, err = br.ReadBytes('\n')
			raw = append(head, raw...)
		}
		if err != nil && err != io.EOF {
			return nil, rep, fmt.Errorf("trace: reading csv line %d: %w", n, err)
		}
		// The one allocation per line: the string ParseCSVLine reads,
		// without the line end (one byte can cost a larger size class).
		line := string(bytes.TrimSuffix(bytes.TrimSuffix(raw, []byte{'\n'}), []byte{'\r'}))
		switch {
		case line == "":
		case !header:
			if f := strings.Count(line, ",") + 1; (f != 6 && f != 7) || !strings.HasPrefix(line, "ts,") {
				return nil, rep, fmt.Errorf("trace: unexpected csv header %q", line)
			}
			header = true
		default:
			e, perr := ParseCSVLine(line)
			if perr != nil {
				perr = fmt.Errorf("csv line %d: %w", n, perr)
				if err == io.EOF && !budget.Strict() {
					rep.Truncate(perr)
				} else if berr := rep.Skip(budget, perr); berr != nil {
					return nil, rep, fmt.Errorf("trace: %w", berr)
				}
				break
			}
			if events == nil { // on the first record: a wrong or empty file reserves nothing
				events = make([]Event, 0, hint)
			}
			rep.Record()
			events = append(events, e)
		}
		if err == io.EOF {
			break
		}
	}
	if !header {
		return nil, rep, errors.New("trace: csv header missing")
	}
	return New(events), rep, nil
}

// eventsHint estimates how many records r holds, so ReadCSV allocates its
// event slice once: growing by append would allocate several times the
// final slice in discarded backing arrays, and on a boot-time seed that
// garbage sets the heap goal the whole process then lives under. It is 0
// unless r is a regular file, else its size divided by the mean line length
// of its first 64 KiB, plus 1/64 slack so lines a little shorter further in
// do not cost a regrow. A wrong guess only costs what append always cost.
func eventsHint(r io.Reader) int {
	f, ok := r.(interface {
		io.ReaderAt
		Stat() (fs.FileInfo, error)
	})
	if !ok {
		return 0
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return 0
	}
	head := make([]byte, 64<<10)
	n, _ := f.ReadAt(head, 0)
	head = head[:n]
	lines := bytes.Count(head, []byte{'\n'})
	if lines == 0 {
		return 0
	}
	est := fi.Size() * int64(lines) / int64(bytes.LastIndexByte(head, '\n')+1)
	return int(est + est/64 + 1)
}

// IsCSVHeader reports whether line is the interchange format's header row
// (either the six-column layout or the vantage-tagged seven-column one), so
// line-oriented sources can skip a header pasted into a live stream
// (e.g. `netcat < trace.csv`).
func IsCSVHeader(line string) bool {
	line = strings.TrimSuffix(line, "\r")
	return line == CSVHeaderLine || line == CSVHeaderLineVantage
}

// ParseCSVLine parses one line of the CSV interchange format (no header, no
// trailing newline): six fields, or seven when the last is the sender-side
// vantage tag. A trailing \r (CRLF framing) is tolerated. It is the one
// record parser — ReadCSV, the stream sockets and the tail-follow source
// all call it — and a well-formed line allocates nothing.
func ParseCSVLine(line string) (Event, error) {
	line = strings.TrimSuffix(line, "\r")
	var rec [7]string
	n := 0
	for ; n < len(rec)-1; n++ {
		i := strings.IndexByte(line, ',')
		if i < 0 {
			break
		}
		rec[n], line = line[:i], line[i+1:]
	}
	rec[n], n = line, n+1
	var e Event
	if n < 6 || strings.IndexByte(line, ',') >= 0 {
		return e, fmt.Errorf("%d fields, want 6 or 7", n+strings.Count(line, ","))
	}
	ts, err := strconv.ParseInt(rec[0], 10, 64)
	if err != nil {
		return e, fmt.Errorf("bad ts %q", rec[0])
	}
	src, err := netutil.ParseIPv4(rec[1])
	if err != nil {
		return e, err
	}
	dst, err := netutil.ParseIPv4(rec[2])
	if err != nil {
		return e, err
	}
	port, err := strconv.ParseUint(rec[3], 10, 16)
	if err != nil {
		return e, fmt.Errorf("bad port %q", rec[3])
	}
	var proto packet.IPProtocol
	switch rec[4] {
	case "tcp":
		proto = packet.IPProtocolTCP
	case "udp":
		proto = packet.IPProtocolUDP
	case "icmp":
		proto = packet.IPProtocolICMPv4
	default:
		return e, fmt.Errorf("bad proto %q", rec[4])
	}
	var vantage VantageID
	if n == 7 {
		if vantage, err = InternVantage(rec[6]); err != nil {
			return e, err
		}
	}
	return Event{
		Ts:      ts,
		Src:     src,
		Dst:     dst,
		Port:    uint16(port),
		Proto:   proto,
		Mirai:   rec[5] == "1",
		Vantage: vantage,
	}, nil
}
