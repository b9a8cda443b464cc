package trace

import (
	"os"
	"strings"

	"github.com/darkvec/darkvec/internal/robust"
)

// ReadFile loads a trace from a .pcap path through ReadPCAP, or from any
// other path through ReadCSV, under robust.Budget{MaxErrors: maxErr}, and
// reports what the ingestion saw. maxErr == 0 is strict: the first
// malformed record aborts. maxErr > 0 tolerates up to that many bad records
// in skip-and-count mode, and an input cut off mid-record yields its intact
// prefix with the report's Truncated flag set. All commands ingest through
// this helper so operators get the same error-budget semantics and ingest
// report everywhere.
func ReadFile(path string, maxErr int64) (*Trace, *robust.IngestReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &robust.IngestReport{}, err
	}
	defer f.Close()
	budget := robust.Budget{MaxErrors: maxErr}
	if strings.HasSuffix(path, ".pcap") {
		return ReadPCAP(f, budget)
	}
	return ReadCSV(f, budget)
}
