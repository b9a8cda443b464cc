package drift

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Decision records one publish-gate verdict: accepted generations carry
// their comparison report (nil for the first generation, which has no
// baseline), rejected candidates carry the budget violations that stopped
// them.
type Decision struct {
	Unix      int64    `json:"unix"`
	Candidate string   `json:"candidate"`
	Baseline  string   `json:"baseline,omitempty"`
	Accepted  bool     `json:"accepted"`
	Reasons   []string `json:"reasons,omitempty"`
	Report    *Report  `json:"report,omitempty"`
}

// DefaultHistorySize bounds the retained gate decisions when the caller
// does not choose a size.
const DefaultHistorySize = 64

// History is a bounded, concurrency-safe log of gate decisions, oldest
// first. It persists as JSON so the drift trajectory survives restarts
// alongside the modelstore MANIFEST.
type History struct {
	mu   sync.Mutex
	max  int
	recs []Decision
}

// NewHistory builds a history retaining at most max decisions
// (DefaultHistorySize when max <= 0).
func NewHistory(max int) *History {
	if max <= 0 {
		max = DefaultHistorySize
	}
	return &History{max: max}
}

// Add appends a decision, evicting the oldest past the size bound.
func (h *History) Add(d Decision) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, d)
	if len(h.recs) > h.max {
		h.recs = append(h.recs[:0], h.recs[len(h.recs)-h.max:]...)
	}
}

// Decisions returns a copy of the retained decisions, oldest first.
func (h *History) Decisions() []Decision {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Decision(nil), h.recs...)
}

// Len returns the number of retained decisions.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.recs)
}

// historyFile is the serialised shape; versioned so the format can grow.
type historyFile struct {
	Version int        `json:"version"`
	Records []Decision `json:"records"`
}

// Save writes the history as JSON.
func (h *History) Save(w io.Writer) error {
	h.mu.Lock()
	f := historyFile{Version: 1, Records: append([]Decision(nil), h.recs...)}
	h.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// LoadHistory reads a history written by Save, re-bounding it to max.
func LoadHistory(r io.Reader, max int) (*History, error) {
	var f historyFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("drift: decoding history: %w", err)
	}
	h := NewHistory(max)
	for _, d := range f.Records {
		h.Add(d)
	}
	return h, nil
}
