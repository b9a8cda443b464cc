package federation

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"github.com/darkvec/darkvec/internal/corpus"
)

// Intern-export paging bounds.
const (
	DefaultInternPageLimit = 4096
	MaxInternPageLimit     = 65536
)

// InternSource describes the sender table a daemon exports at /v1/intern.
type InternSource struct {
	// Vantage names the exporting vantage point.
	Vantage string
	// Epoch identifies this process instance (see InternPage.Epoch); use
	// NewEpoch at boot.
	Epoch string
	// Table is the live interner. It is append-only, so pages are served
	// directly off it without snapshotting.
	Table *corpus.Interner
	// Generation, when non-nil, reports the serving model generation; nil
	// exports "".
	Generation func() string
}

// NewInternHandler serves paged reads of an append-only sender table:
//
//	GET /v1/intern?offset=0&limit=4096
//
// Ids are dense and immutable, so pagination is stable under concurrent
// interning — a page fetched mid-retrain is identical to the same page
// fetched after, only Total moves. The handler is cheap enough to stay
// ungated: the aggregator needs it while the first model is still training.
func NewInternHandler(src InternSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		offset := 0
		if s := q.Get("offset"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				badRequest(w, "invalid offset %q", s)
				return
			}
			offset = v
		}
		limit := DefaultInternPageLimit
		if s := q.Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				badRequest(w, "invalid limit %q", s)
				return
			}
			limit = min(v, MaxInternPageLimit)
		}
		// One range read cuts the page and its Total together. Clipping
		// the offset first keeps offset+limit from overflowing; an offset
		// that large is past any table, so the page is empty either way.
		lo := min(offset, math.MaxInt-limit)
		senders, total := src.Table.Words(lo, lo+limit)
		page := InternPage{
			Vantage: src.Vantage,
			Epoch:   src.Epoch,
			Total:   total,
			Offset:  min(offset, total),
			Senders: senders,
		}
		if src.Generation != nil {
			page.Generation = src.Generation()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(page)
	})
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
