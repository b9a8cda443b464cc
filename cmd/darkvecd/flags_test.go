package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// registered returns a FlagSet carrying every daemon flag, bound to o.
func registered(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("darkvecd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.register(fs)
	return fs
}

// TestFlagsHelpPinned: the -h text (every flag, its type, default and
// usage) is byte-identical to testdata/help.golden.
func TestFlagsHelpPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fs := registered(new(options))
	fs.SetOutput(&buf)
	fs.PrintDefaults()
	if got := buf.String(); got != string(want) {
		t.Errorf("-h output drifted from testdata/help.golden:\n%s", got)
	}
}

// TestValidateErrorsPinned runs one-fault argument lists through the flag
// parser and validate, as main does, and pins each error string ("" =
// accepted). Every rule of validate has a row.
func TestValidateErrorsPinned(t *testing.T) {
	in := []string{"-in", "trace.csv"}
	live := []string{"-ingest", "127.0.0.1:0", "-retrain", "1s"}
	with := func(base []string, args ...string) []string {
		return append(append([]string(nil), base...), args...)
	}
	cases := []struct {
		args []string
		want string
	}{
		// Accepted: the base sets, and flags checked only beside another.
		{in, ""},
		{live, ""},
		{with(in, "-walfsync", "fsync"), ""},
		{with(in, "-ingestcap", "-5"), ""},
		{with(in, "-ingestqueue", "-1"), ""},
		{with(in, "-retrain", "1s", "-warm", "-driftmax", "0.5"), ""},
		{with(live, "-wal", "w", "-walfsync", "off"), ""},
		{with(in, "-vantage", "north"), ""},

		{nil, "missing -in trace (or a live source: -ingest / -follow)"},
		{[]string{"-in", ""}, "missing -in trace (or a live source: -ingest / -follow)"},
		{with(in, "-dim", "0"), "invalid -dim 0: must be > 0"},
		{with(in, "-dim", "abc"), `invalid value "abc" for flag -dim: parse error`},
		{with(in, "-window", "0"), "invalid -window 0: must be > 0"},
		{with(in, "-epochs", "-3"), "invalid -epochs -3: must be > 0"},
		{with(in, "-kprime", "0"), "invalid -kprime 0: must be > 0"},
		{with(in, "-evaldays", "0"), "invalid -evaldays 0: must be > 0"},
		{with(in, "-maxerr", "-1"), "invalid -maxerr -1: must be >= 0"},
		{with(in, "-pprof", "nonsense"), `invalid -pprof "nonsense": address nonsense: missing port in address`},
		{with(in, "-pprof", "10.0.0.1:6060"), `invalid -pprof "10.0.0.1:6060": host must be a loopback address`},
		{with(in, "-retrain", "-1s"), "invalid -retrain -1s: must be >= 0"},
		{with(in, "-warm"), "-warm requires -retrain > 0: warm seeding applies to background retrains"},
		{[]string{"-ingest", "127.0.0.1:0"}, "live ingestion (-ingest / -follow) requires -retrain > 0: the window is useless if nothing retrains on it"},
		{[]string{"-follow", "feed.csv"}, "live ingestion (-ingest / -follow) requires -retrain > 0: the window is useless if nothing retrains on it"},
		{with(live, "-ingestpolicy", "newest-first"), `invalid -ingestpolicy "newest-first": want shed-newest or drop-oldest`},
		{with(live, "-ingestcap", "-5"), "invalid -ingestcap -5: must be >= 0"},
		{with(live, "-ingestcap", "2147483648"), "invalid -ingestcap 2147483648: must be <= 2147483647"},
		{with(live, "-ingestqueue", "-1"), "invalid -ingestqueue -1: must be >= 0"},
		{with(live, "-ingestmin", "-1"), "invalid -ingestmin -1: must be >= 0"},
		{with(live, "-ingestminpkts", "-1"), "flag provided but not defined: -ingestminpkts"},
		{with(live, "-ingestrate", "-1"), "invalid -ingestrate -1: must be >= 0"},
		{with(in, "-wal", "w"), "-wal logs accepted live events; it requires a live source (-ingest / -follow)"},
		{with(live, "-wal", "w", "-walfsync", "fsync"), `invalid -walfsync: wal: invalid sync policy "fsync": want always, interval or off`},
		{with(in, "-walseg", "-1"), "invalid -walseg -1: must be >= 0"},
		{with(in, "-driftmax", "2"), "invalid -driftmax 2: must be in [0,1]"},
		{with(in, "-driftchurn", "-0.5"), "invalid -driftchurn -0.5: must be in [0,1]"},
		{with(in, "-driftoverlap", "1.5"), "invalid -driftoverlap 1.5: must be in [0,1]"},
		{with(in, "-driftsildrop", "2"), "invalid -driftsildrop 2: must be in [0,1]"},
		{with(in, "-driftshift", "2"), "invalid -driftshift 2: must be in [0,1]"},
		{with(in, "-driftnew", "2"), "invalid -driftnew 2: must be in [0,1]"},
		{with(in, "-driftk", "-1"), "invalid -driftk -1: must be >= 0"},
		{with(in, "-drifthist", "-1"), "invalid -drifthist -1: must be >= 0"},
		{with(in, "-driftmax", "0.5"), "drift budgets require -retrain > 0: the gate judges retrained candidates"},
		{with(in, "-keep", "-1"), "invalid -keep -1: must be >= 0"},
		{with(in, "-retrainfail", "-1"), "invalid -retrainfail -1: must be >= 0"},
		{with(in, "-annmin", "-1"), "invalid -annmin -1: must be >= 0"},
		{with(in, "-vantage", "a,b"), `invalid -vantage "a,b": must not contain ',', ';' or line breaks`},
		{with(in, "-vantage", "a;b"), `invalid -vantage "a;b": must not contain ',', ';' or line breaks`},
		{with(in, "-listen", "127.0.0.1"), `invalid -listen "127.0.0.1": address 127.0.0.1: missing port in address`},
		{with(in, "-listen", "127.0.0.1:99999"), `invalid -listen "127.0.0.1:99999": bad port "99999"`},
		{with(in, "-listen", "256.0.0.1:8080"), `invalid -listen "256.0.0.1:8080": host must be an IP or localhost`},
		{with(in, "-flush", "1s"), "flag provided but not defined: -flush"},
		// Rejected before -in is read: the file does not exist, and the
		// error names the flag.
		{[]string{"-in", "/missing.csv", "-vantage", strings.Repeat("v", 300)}, "invalid -vantage: vantage length 300 exceeds 255"},
		{[]string{"-in", "/missing.csv", "-ingestpolicy", "bogus"}, `invalid -ingestpolicy "bogus": want shed-newest or drop-oldest`},
	}
	for _, tc := range cases {
		var o options
		err := registered(&o).Parse(tc.args)
		if err == nil {
			err = o.validate()
		}
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", strings.Join(tc.args, " "), got, tc.want)
		}
	}
}
