package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// writeRawRecord frames payload exactly as Append does — u32 length, u32
// CRC32C, bytes — without going through event encoding, so tests can plant
// validly framed but undecodable records.
func writeRawRecord(t testing.TB, w io.Writer, payload []byte) {
	t.Helper()
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
}

// segmentBytes builds an in-memory segment: header plus framed events.
func segmentBytes(t testing.TB, events ...trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(segmentMagic[:])
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], segVersion)
	buf.Write(v[:])
	for _, e := range events {
		writeRawRecord(t, &buf, e.AppendBinary(nil))
	}
	return buf.Bytes()
}

// FuzzWALRecord throws arbitrary bytes at the segment scanner. The
// invariants under any input: the scanner never panics, the valid boundary
// is deterministic (same bytes, same offset), the boundary lands exactly
// at the end of a framed record (or the header), and every payload the
// scanner accepts re-frames to the byte range it was read from.
func FuzzWALRecord(f *testing.F) {
	seed := segmentBytes(f,
		trace.Event{Ts: 1700000000, Proto: packet.IPProtocolTCP, Port: 23, Vantage: trace.MustVantage("west")},
		trace.Event{Ts: 1700000001, Proto: packet.IPProtocolUDP, Port: 53, Mirai: true},
	)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                   // torn mid-record
	f.Add(seed[:headerSize])                    // header only
	f.Add([]byte{})                             // empty file
	f.Add(bytes.Repeat([]byte{0xff}, 64))       // not a segment
	f.Add(append(seed, make([]byte, 128)...))   // zero-padded tail (preallocation)
	f.Add(append(seed, 0xde, 0xad, 0xbe, 0xef)) // garbage tail
	f.Fuzz(func(t *testing.T, b []byte) {
		var payloads [][]byte
		info, err := scanRecords(bytes.NewReader(b), func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			// Bad header: nothing may have been scanned.
			if info.records != 0 || len(payloads) != 0 {
				t.Fatalf("scan reported records despite header error: %+v", info)
			}
			return
		}
		if info.valid < headerSize || info.valid > int64(len(b)) {
			t.Fatalf("valid offset %d outside [header, len]=%d", info.valid, len(b))
		}
		if int64(len(payloads)) != info.records {
			t.Fatalf("callback count %d != records %d", len(payloads), info.records)
		}
		// Re-framing every accepted payload must reproduce b[header:valid]:
		// the boundary sits exactly on a record edge.
		var re bytes.Buffer
		for _, p := range payloads {
			writeRawRecord(t, &re, p)
		}
		if !bytes.Equal(re.Bytes(), b[headerSize:info.valid]) {
			t.Fatalf("accepted records do not reproduce the valid prefix")
		}
		// Determinism: a second scan of the same bytes lands on the same
		// boundary with the same counts.
		info2, err2 := scanRecords(bytes.NewReader(b), nil)
		if err2 != nil || info2.valid != info.valid || info2.records != info.records || info2.maxTs != info.maxTs {
			t.Fatalf("scan not deterministic: %+v vs %+v (%v)", info, info2, err2)
		}
	})
}
