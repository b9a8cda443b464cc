package trace

import (
	"bytes"
	"encoding/csv"
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

// csvHeader is the column layout of the on-disk trace format, mirroring the
// anonymised dataset released with the paper (timestamp, source, darknet
// destination, destination port, protocol) plus the Mirai fingerprint bit so
// labeled experiments don't need the raw payloads.
var csvHeader = []string{"ts", "src_ip", "dst_ip", "dst_port", "proto", "mirai"}

// csvHeaderV is csvHeader extended with the optional vantage column used
// by multi-vantage traces. Readers accept either layout; writers pick the
// extended one only when at least one event carries a tag, so
// single-vantage files stay byte-identical to the historical format.
var csvHeaderV = []string{"ts", "src_ip", "dst_ip", "dst_port", "proto", "mirai", "vantage"}

// CSVHeaderLine is the header row of the CSV interchange format, which is
// also the line protocol spoken by live stream sources (one record per
// line, header optional).
const CSVHeaderLine = "ts,src_ip,dst_ip,dst_port,proto,mirai"

// CSVHeaderLineVantage is the header row of the vantage-tagged variant.
const CSVHeaderLineVantage = "ts,src_ip,dst_ip,dst_port,proto,mirai,vantage"

// Tagged reports whether any event carries a vantage tag.
func (t *Trace) Tagged() bool {
	for _, e := range t.Events {
		if e.Vantage != 0 {
			return true
		}
	}
	return false
}

// WriteCSV writes the trace in the repository's CSV interchange format.
// A trace holding at least one vantage-tagged event is written with the
// extended seven-column header; untagged traces keep the historical
// six-column layout byte for byte.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	hdr := csvHeader
	tagged := t.Tagged()
	if tagged {
		hdr = csvHeaderV
	}
	if err := cw.Write(hdr); err != nil {
		return err
	}
	rec := make([]string, len(hdr))
	for _, e := range t.Events {
		rec[0] = strconv.FormatInt(e.Ts, 10)
		rec[1] = e.Src.String()
		rec[2] = e.Dst.String()
		rec[3] = strconv.Itoa(int(e.Port))
		rec[4] = e.Proto.String()
		if e.Mirai {
			rec[5] = "1"
		} else {
			rec[5] = "0"
		}
		if tagged {
			rec[6] = e.Vantage.String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AppendCSV appends the event's CSV interchange line (without a trailing
// newline) to dst — the allocation-free formatter live sources use to
// stream events over the wire.
func (e Event) AppendCSV(dst []byte) []byte {
	dst = strconv.AppendInt(dst, e.Ts, 10)
	dst = append(dst, ',')
	dst = append(dst, e.Src.String()...)
	dst = append(dst, ',')
	dst = append(dst, e.Dst.String()...)
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

// ReadCSV parses a trace written by WriteCSV. Events are re-sorted by
// timestamp on load.
func ReadCSV(r io.Reader) (*Trace, error) {
	tr, _, err := readCSV(r, nil)
	return tr, err
}

// readCSV materialises a scan. When r is a regular file the event slice is
// allocated once, sized from the file's length over the mean line length of
// its head: growing by append would allocate several times the final slice
// in discarded backing arrays, and on a boot-time seed that garbage sets
// the heap goal the whole process then lives under.
func readCSV(r io.Reader, budget *robust.Budget) (*Trace, *robust.IngestReport, error) {
	var events []Event
	hint := eventsHint(r)
	rep, err := streamCSV(r, budget, func(e Event) error {
		if events == nil { // on the first record: a wrong or empty file reserves nothing
			events = make([]Event, 0, hint)
		}
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	return New(events), rep, nil
}

// eventsHint estimates how many records r holds: 0 unless r is a regular
// file, else its size divided by the mean line length of its first 64 KiB,
// plus 1/64 slack so lines a little shorter further in do not cost a
// regrow. A wrong guess only costs what append always cost.
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

// ErrStop lets a StreamCSV callback end iteration early without an error.
var ErrStop = errors.New("trace: stop streaming")

// StreamCSV feeds each CSV event to fn without materialising the trace —
// the path for month-scale captures that do not fit in memory (statistics
// passes, filters, format conversion). fn returning ErrStop ends the scan
// cleanly; any other error aborts and is returned. The scan is strict: the
// first malformed record aborts. Use StreamCSVTolerant for dirty captures.
// A complete final line without a trailing newline parses normally.
func StreamCSV(r io.Reader, fn func(Event) error) error {
	_, err := streamCSV(r, nil, fn)
	return err
}

// StreamCSVTolerant is StreamCSV with an error budget: malformed records
// are skipped and counted in the returned IngestReport, and the scan only
// aborts (with an error wrapping robust.ErrBudgetExceeded) when the budget
// is exhausted. A malformed header always aborts — that is a wrong file,
// not a dirty one. An unparsable final record immediately followed by EOF
// is recorded as a truncation (tail-follow sources deliver partial final
// lines routinely), not charged against the budget.
func StreamCSVTolerant(r io.Reader, budget robust.Budget, fn func(Event) error) (*robust.IngestReport, error) {
	return streamCSV(r, &budget, fn)
}

// streamCSV is the shared scan loop; budget == nil selects the historical
// strict behaviour (first bad record aborts with the bare error).
func streamCSV(r io.Reader, budget *robust.Budget, fn func(Event) error) (*robust.IngestReport, error) {
	rep := &robust.IngestReport{}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	// Records validate their own field count (6 or 7 columns): a tagged
	// trace may legitimately mix vantage-tagged and untagged rows, which
	// the reader's per-file count enforcement would reject wholesale.
	cr.FieldsPerRecord = -1
	hdr, err := cr.Read()
	if err != nil {
		return rep, fmt.Errorf("trace: reading csv header: %w", err)
	}
	if (len(hdr) != len(csvHeader) && len(hdr) != len(csvHeaderV)) || hdr[0] != "ts" {
		return rep, fmt.Errorf("trace: unexpected csv header %v", hdr)
	}
	// pend holds one record read ahead of the loop: distinguishing a
	// truncated final line from a mid-stream malformed one requires
	// peeking at the next read, and the peeked record must then be
	// processed normally. With ReuseRecord the peeked slice stays valid
	// exactly until the next cr.Read(), which the loop order guarantees.
	var (
		pendRec  []string
		pendErr  error
		havePend bool
	)
	for line := 2; ; line++ {
		var rec []string
		var err error
		if havePend {
			rec, err, havePend = pendRec, pendErr, false
		} else {
			rec, err = cr.Read()
		}
		if err == io.EOF {
			return rep, nil
		}
		if err != nil {
			var perr *csv.ParseError
			if budget != nil && errors.As(err, &perr) {
				// Shape errors (wrong field count, stray quote) are
				// per-line recoverable; the reader resynchronises on the
				// next line — unless this was the input's final record, in
				// which case the line was cut off mid-write (a partial
				// tail from a live file or interrupted copy) and the
				// intact prefix is a successful ingest.
				pendRec, pendErr = cr.Read()
				if pendErr == io.EOF {
					rep.Truncate(err)
					return rep, nil
				}
				havePend = true
				if berr := rep.Skip(*budget, err); berr != nil {
					return rep, fmt.Errorf("trace: %w", berr)
				}
				continue
			}
			return rep, err
		}
		e, err := parseCSVRecord(rec)
		if err != nil {
			err = fmt.Errorf("trace: csv line %d: %w", line, err)
			if budget != nil {
				// A wrong field count on the input's final record is a line
				// cut off mid-write (the csv.Reader no longer enforces the
				// count itself, so the shape error surfaces here): the
				// intact prefix is a successful ingest, exactly like the
				// ParseError branch above.
				if errors.Is(err, errFieldCount) {
					pendRec, pendErr = cr.Read()
					if pendErr == io.EOF {
						rep.Truncate(err)
						return rep, nil
					}
					havePend = true
				}
				if berr := rep.Skip(*budget, err); berr != nil {
					return rep, fmt.Errorf("trace: %w", berr)
				}
				continue
			}
			return rep, err
		}
		rep.Record()
		if err := fn(e); err != nil {
			if errors.Is(err, ErrStop) {
				return rep, nil
			}
			return rep, err
		}
	}
}

// ReadCSVTolerant parses a trace under an error budget, returning the
// loaded trace together with the ingest report. See StreamCSVTolerant.
func ReadCSVTolerant(r io.Reader, budget robust.Budget) (*Trace, *robust.IngestReport, error) {
	return readCSV(r, &budget)
}

// IsCSVHeader reports whether line is the interchange format's header row
// (either the six-column layout or the vantage-tagged seven-column one), so
// line-oriented sources can skip a header pasted into a live stream
// (e.g. `netcat < trace.csv`).
func IsCSVHeader(line string) bool {
	line = strings.TrimSuffix(line, "\r")
	return line == CSVHeaderLine || line == CSVHeaderLineVantage
}

// ParseCSVLine parses one line of the CSV interchange format (no header,
// no trailing newline) — the per-line entry point of the live stream
// sources, which frame records themselves and cannot afford a csv.Reader
// per connection. A trailing \r (CRLF framing) is tolerated. A seventh
// field, when present, is the sender-side vantage tag.
func ParseCSVLine(line string) (Event, error) {
	line = strings.TrimSuffix(line, "\r")
	fields := strings.Split(line, ",")
	return parseCSVRecord(fields)
}

// errFieldCount marks a record whose very shape is wrong (field count),
// as opposed to one whose values do not parse. The tolerant scanner uses
// the distinction to tell a mid-write truncation from a dirty line.
var errFieldCount = errors.New("wrong field count")

func parseCSVRecord(rec []string) (Event, error) {
	var e Event
	if len(rec) != len(csvHeader) && len(rec) != len(csvHeaderV) {
		// The line-protocol path, fuzzers, and (with per-record count
		// enforcement off) the csv.Reader path all land here.
		return e, fmt.Errorf("%w: %d fields, want %d or %d", errFieldCount, len(rec), len(csvHeader), len(csvHeaderV))
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
	if len(rec) == len(csvHeaderV) {
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
