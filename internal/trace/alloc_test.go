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
