package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"
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
// (the 4 KiB default costs a write call every ≈ 80 lines). Each line is
// formatted straight into the buffer's free space. A trace holding at least
// one vantage-tagged event is written with the extended seven-column
// header, and its untagged rows carry an empty seventh column; untagged
// traces keep the six-column layout.
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
	for _, e := range t.Events {
		// Room for the longest in-place line and its tag first, so the
		// line stays in the buffer and Write moves nothing. A line on
		// AppendCSV's strconv path may still outgrow it, at the cost of
		// one copy.
		if bw.Available() < maxCSVLine+1+MaxVantageLen+2 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		line := e.AppendCSV(bw.AvailableBuffer())
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

// maxCSVLine is the longest line AppendCSV writes in place: a ten-digit
// timestamp, two 15-byte addresses, a five-digit port, "icmp" and the Mirai
// bit, with their five commas. A vantage tag is appended after it.
const maxCSVLine = 10 + 1 + netutil.MaxIPv4Len + 1 + netutil.MaxIPv4Len + 1 + 5 + 1 + 4 + 2

// maxInPlaceTs is the largest timestamp AppendCSV writes in place.
const maxInPlaceTs = 9_999_999_999

// AppendCSV appends the event's CSV interchange line (without a trailing
// newline) to dst — the formatter WriteCSV and the live sources share. It
// reserves maxCSVLine bytes once and writes each field by index: the
// timestamp and port two digits at a time, each address octet by table.
// A timestamp outside [0, maxInPlaceTs] or an unknown protocol takes the
// strconv path instead. It allocates only if dst must grow
// (TestAppendCSVAllocs).
func (e Event) AppendCSV(dst []byte) []byte {
	proto := protoText(e.Proto)
	if e.Ts < 0 || e.Ts > maxInPlaceTs || proto == "" {
		return e.appendCSVStrconv(dst)
	}
	n := len(dst)
	dst = slices.Grow(dst, maxCSVLine)
	b := dst[n : n+maxCSVLine]
	i := putTimestamp(b, uint64(e.Ts))
	b[i] = ','
	i++
	i += e.Src.Put(b[i : i+netutil.MaxIPv4Len])
	b[i] = ','
	i++
	i += e.Dst.Put(b[i : i+netutil.MaxIPv4Len])
	b[i] = ','
	i++
	i += putDecimal(b[i:], uint32(e.Port))
	b[i] = ','
	i++
	i += copy(b[i:], proto)
	b[i], b[i+1] = ',', '0'
	if e.Mirai {
		b[i+1] = '1'
	}
	return e.appendVantage(dst[:n+i+2])
}

// appendCSVStrconv is AppendCSV for the lines it does not write in place.
func (e Event) appendCSVStrconv(dst []byte) []byte {
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
	return e.appendVantage(dst)
}

// appendVantage appends the event's vantage column, if it has a tag.
func (e Event) appendVantage(dst []byte) []byte {
	if e.Vantage != 0 {
		dst = append(dst, ',')
		dst = append(dst, e.Vantage.String()...)
	}
	return dst
}

// protoText is the CSV name of the three protocols the format parses, their
// packet.IPProtocol names, and "" for any other.
func protoText(p packet.IPProtocol) string {
	switch p {
	case packet.IPProtocolTCP, packet.IPProtocolUDP, packet.IPProtocolICMPv4:
		return p.String()
	}
	return ""
}

// putTimestamp writes v, at most maxInPlaceTs, in decimal at the start of b
// and returns its length. A value of nine or ten digits (every Unix time
// since 1973) is split at 10⁸, and its low eight digits written as four
// pairs.
func putTimestamp(b []byte, v uint64) int {
	if v < 1e8 {
		return putDecimal(b, uint32(v))
	}
	hi := uint32(v / 1e8)
	n := putDecimal(b, hi)
	lo := uint32(v - uint64(hi)*1e8)
	d := b[n : n+8]
	for i := 6; i >= 0; i -= 2 {
		q := lo / 100
		p := 2 * (lo - 100*q)
		d[i], d[i+1] = digitPairs[p], digitPairs[p+1]
		lo = q
	}
	return n + 8
}

// putDecimal writes v, below 10⁸, in decimal at the start of b and returns
// its length: two digits per division, from the right.
func putDecimal(b []byte, v uint32) int {
	n := 1
	for p := uint32(10); n < 8 && v >= p; p *= 10 {
		n++
	}
	i := n
	for v >= 100 {
		q := v / 100
		d := 2 * (v - 100*q)
		i -= 2
		b[i], b[i+1] = digitPairs[d], digitPairs[d+1]
		v = q
	}
	if v >= 10 {
		b[0], b[1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		b[0] = byte('0' + v)
	}
	return n
}

// digitPairs is "00" through "99", back to back.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

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
