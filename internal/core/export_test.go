package core

import "hybridqos/internal/clients"

// Inject exposes inject to the external cell tests, which deliver a roamer
// at the current simulated time without booking an event.
func (s *Server) Inject(item int, class clients.Class, arrival float64, attempts int, span int64) InjectOutcome {
	return s.inject(item, class, arrival, attempts, span)
}
