package drift

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// Last returns the most recent decision, if any.
func (h *History) Last() (Decision, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.recs) == 0 {
		return Decision{}, false
	}
	return h.recs[len(h.recs)-1], true
}
