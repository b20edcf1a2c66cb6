package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"equinox/internal/fleet"
	"equinox/internal/obs"
)

// sseEvent is one rendered server-sent event.
type sseEvent struct {
	name string // SSE event name: unit, cache, telemetry, job
	data []byte // one-line JSON payload
}

// maxEventHistory bounds a job's replay buffer. A full-suite sweep emits
// one event per (scheme, benchmark) plus a handful of lifecycle events,
// far under the bound; if it is ever hit the oldest events roll off and
// late subscribers see a truncated prefix.
const maxEventHistory = 8192

// eventHub fans a job's progress events out to SSE subscribers. Events
// are buffered so a subscriber arriving late — or after the job finished
// — replays the full history before streaming live. The hub closes after
// the terminal event; subscribers' channels close with it.
type eventHub struct {
	mu      sync.Mutex
	history []sseEvent
	subs    map[chan sseEvent]struct{}
	closed  bool
}

func newEventHub() *eventHub {
	return &eventHub{subs: map[chan sseEvent]struct{}{}}
}

// publish renders the event and delivers it to history and live
// subscribers. A subscriber that has fallen 256 events behind is dropped
// (its channel closes; the client reconnects and replays).
func (h *eventHub) publish(ev fleet.Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return // fleet.Event always marshals; defensive only
	}
	e := sseEvent{name: ev.Type, data: data}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.history = append(h.history, e)
	if len(h.history) > maxEventHistory {
		h.history = h.history[len(h.history)-maxEventHistory:]
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			delete(h.subs, ch)
			close(ch)
		}
	}
}

// close ends the stream: live subscribers' channels close after draining.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = nil
}

// subscribe returns the history so far and, while the hub is open, a live
// channel (nil once closed: the history already ends with the terminal
// event).
func (h *eventHub) subscribe() (history []sseEvent, live chan sseEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	history = append([]sseEvent(nil), h.history...)
	if h.closed {
		return history, nil
	}
	live = make(chan sseEvent, 256)
	h.subs[live] = struct{}{}
	return history, live
}

func (h *eventHub) unsubscribe(ch chan sseEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

// handleEvents streams a job's progress as server-sent events
// (GET /v1/jobs/{id}/events): unit grants, completions and retries,
// unit-level cache hits, telemetry frames, and a terminal "job" event,
// after which the stream ends. Subscribing to a finished job replays its
// history.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	var hub *eventHub
	if ok {
		hub = j.events
	} else {
		// No live record: a job from a previous process whose result
		// survived in the store still gets a terminal event.
		if _, hit := s.store.Get(id); !hit {
			obs.WriteError(w, http.StatusNotFound, "no such job")
			return
		}
		hub = newEventHub()
		hub.publish(fleet.Event{Type: "job", Status: string(JobDone)})
		hub.close()
	}

	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		obs.WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	history, live := hub.subscribe()
	if live != nil {
		defer hub.unsubscribe(live)
	}
	for _, e := range history {
		writeSSE(w, e)
	}
	fl.Flush()
	if live == nil {
		return
	}
	for {
		select {
		case e, open := <-live:
			if !open {
				return
			}
			writeSSE(w, e)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, e sseEvent) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.name, e.data)
}
