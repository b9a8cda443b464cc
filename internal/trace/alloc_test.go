//go:build !race

package trace

import "testing"

// TestParseCSVLineAllocs: the one record parser splits into a fixed field
// array, so a well-formed line, untagged or tagged with a known vantage,
// allocates nothing. Not built under the race detector, which instruments
// allocations of its own.
func TestParseCSVLineAllocs(t *testing.T) {
	MustVantage("north")
	for _, line := range []string{
		"100,1.1.1.1,198.18.0.1,23,tcp,1",
		"100,1.1.1.1,198.18.0.1,23,tcp,1,north",
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseCSVLine(line); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ParseCSVLine(%q) allocates %v times, want 0", line, n)
		}
	}
}

// TestAppendCSVAllocs: the one formatter behind WriteCSV and the live
// sources writes both addresses digit by digit into dst, so a line,
// untagged or tagged, allocates nothing once dst has room.
func TestAppendCSVAllocs(t *testing.T) {
	e, err := ParseCSVLine("1614643200,203.0.113.255,198.18.0.10,23,tcp,1")
	if err != nil {
		t.Fatal(err)
	}
	tagged := e
	tagged.Vantage = MustVantage("north")
	buf := make([]byte, 0, 128)
	for _, e := range []Event{e, tagged} {
		if n := testing.AllocsPerRun(100, func() { buf = e.AppendCSV(buf[:0]) }); n != 0 {
			t.Errorf("AppendCSV(%q) allocates %v times, want 0", buf, n)
		}
	}
}
