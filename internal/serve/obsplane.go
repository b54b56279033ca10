package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"atm/internal/engine"
	"atm/internal/obs"
	"atm/internal/score"
)

// DefaultEventTail is how many recent events GET /v1/events returns
// when the request does not pick a count.
const DefaultEventTail = 100

// debugEventTail is how many of the box's recent events ride along in
// the debug payload.
const debugEventTail = 32

// Ready reports whether the service can take traffic: started, not
// draining, every shard scheduler loop live. The reason explains a
// false verdict.
func (s *Service) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if !s.started.Load() {
		return false, "engine not started"
	}
	if running, want := s.engine.RunningShards(), s.store.Shards(); running < want {
		return false, fmt.Sprintf("%d/%d shard scheduler loops running", running, want)
	}
	return true, "ok"
}

// ReadyzHandler serves GET /readyz: 200 when the service is taking
// traffic, 503 (with the reason) while starting up or draining.
// Liveness stays on /healthz (obs.HealthzHandler) — a draining daemon
// is alive but not ready.
func (s *Service) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ready, reason := s.Ready()
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"ready": ready, "reason": reason})
	})
}

// EventsResponse is the GET /v1/events payload: the requested tail of
// the decision event log plus its lifetime counters.
type EventsResponse struct {
	Events []obs.Event `json:"events"`
	// Total counts events ever published; Dropped counts events the
	// JSONL sink lost (the in-memory tail never drops silently — old
	// events are overwritten, which Total exposes).
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
}

// EventsHandler serves GET /v1/events?box={id}&n={count}: the most
// recent decision events, oldest first. n defaults to
// DefaultEventTail; box filters to one box.
func (s *Service) EventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			jsonError(w, http.StatusMethodNotAllowed, "events is GET-only")
			return
		}
		n := DefaultEventTail
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 1 {
				jsonError(w, http.StatusBadRequest, "n must be a positive integer, got %q", raw)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(EventsResponse{
			Events:  s.events.Tail(n, r.URL.Query().Get("box")),
			Total:   s.events.Total(),
			Dropped: s.events.Dropped(),
		})
	})
}

// DebugResponse is the GET /v1/boxes/{id}/debug payload: the engine's
// step state and last decision, the forecast scorecard, the box's
// recent decision events, and the span tree of the last step's trace.
type DebugResponse struct {
	engine.BoxDebug
	// Scorecard is nil until the box's first step is scored.
	Scorecard *score.Card `json:"scorecard,omitempty"`
	// Events is the box's recent decision-event tail, oldest first.
	Events []obs.Event `json:"events,omitempty"`
	// Spans is the recorded span tree of the last plan's trace (empty
	// when the ring has already recycled it).
	Spans []obs.SpanData `json:"spans,omitempty"`
}

func (s *Service) handleDebug(w http.ResponseWriter, id string) {
	if _, err := s.store.Meta(id); err != nil {
		jsonError(w, http.StatusNotFound, "box %q not registered", id)
		return
	}
	dbg, ok := s.engine.Debug(id)
	if !ok {
		// Registered but never inspected by a pass yet: an empty
		// snapshot, not an error — operators hit this route while a box
		// is still filling its first window.
		dbg = engine.BoxDebug{Box: id, Shard: s.store.ShardOf(id), State: "idle"}
	}
	resp := DebugResponse{BoxDebug: dbg}
	if card, ok := s.engine.Scores().Snapshot(id); ok {
		resp.Scorecard = &card
	}
	resp.Events = s.events.Tail(debugEventTail, id)
	if dbg.Plan != nil && dbg.Plan.TraceID != "" {
		resp.Spans = s.ring.Trace(dbg.Plan.TraceID)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
