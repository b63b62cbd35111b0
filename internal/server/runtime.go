package server

import (
	"net/http"

	"yieldcache/internal/obs"
)

// handleRuntimeHistory serves GET /v1/runtime/history: the flight
// recorder's ring of runtime samples (goroutines, heap, GC, worker-pool
// occupancy, queue depth, EWMA build estimate), oldest first. With the
// recorder disabled (-flight-interval < 0) the response carries zero
// capacity and no samples.
func (s *Server) handleRuntimeHistory(w http.ResponseWriter, r *http.Request) {
	out := RuntimeHistoryResponse{Samples: []obs.RuntimeSample{}}
	if s.flight != nil {
		out.IntervalMS = s.flight.Interval().Seconds() * 1e3
		out.Capacity = s.flight.Capacity()
		if hist := s.flight.History(); hist != nil {
			out.Samples = hist
		}
	}
	writeJSON(w, http.StatusOK, out)
}
