package honeypot

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// Attempts returns a snapshot of recorded attempts.
func (s *Server) Attempts() []Attempt {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attempt, len(s.attempts))
	copy(out, s.attempts)
	return out
}
