package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"yieldcache/internal/obs"
)

// SSE connection tuning. Keepalive comments hold idle connections open
// through proxies; the write deadline bounds how long a stalled client
// can pin a handler goroutine inside a single write.
const (
	sseKeepalive    = 15 * time.Second
	sseWriteTimeout = 30 * time.Second
)

// sseWriter frames telemetry events as Server-Sent Events and flushes
// each one immediately, so subscribers see events as they happen rather
// than when a buffer fills.
type sseWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

// start sends the SSE response header and an opening comment naming the
// stream, committing the 200 before the first event.
func (sw *sseWriter) start(name string) error {
	h := sw.w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	sw.w.WriteHeader(http.StatusOK)
	return sw.comment(name)
}

// writeEvent sends one event frame: an optional id (the bus sequence
// number; replayed snapshots carry none), the event type, and the JSON
// payload.
func (sw *sseWriter) writeEvent(ev obs.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if ev.Seq > 0 {
		fmt.Fprintf(&b, "id: %d\n", ev.Seq)
	}
	fmt.Fprintf(&b, "event: %s\ndata: %s\n\n", ev.Type, data)
	return sw.send(b.Bytes())
}

// comment sends an SSE comment line — invisible to EventSource clients,
// but it keeps the connection alive and marks stream milestones for
// curl -N users.
func (sw *sseWriter) comment(text string) error {
	return sw.send([]byte(": " + text + "\n\n"))
}

func (sw *sseWriter) send(frame []byte) error {
	// Best-effort deadline: recorders in tests do not support one.
	_ = sw.rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
	if _, err := sw.w.Write(frame); err != nil {
		return err
	}
	if err := sw.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

// canStream reports whether the innermost ResponseWriter can flush.
// The obs.Instrument wrapper forwards Flush unconditionally, so the
// wrapper itself always type-asserts as a Flusher — unwrap to the
// writer that actually talks to the connection before deciding.
func canStream(w http.ResponseWriter) bool {
	for {
		if u, ok := w.(interface{ Unwrap() http.ResponseWriter }); ok {
			w = u.Unwrap()
			continue
		}
		_, ok := w.(http.Flusher)
		return ok
	}
}

// jobStreamTypes is the event subset a per-job stream subscribes to;
// admission is observable only on the firehose (a job-scoped stream can
// only be opened after the admission that minted the id).
var jobStreamTypes = []obs.EventType{
	obs.EventJobStarted, obs.EventJobProgress, obs.EventJobPhase,
	obs.EventJobEstimate,
	obs.EventJobCompleted, obs.EventJobFailed,
	obs.EventSweepConfig,
}

// terminalEvent reports whether ev ends a job's stream.
func terminalEvent(t obs.EventType) bool {
	return t == obs.EventJobCompleted || t == obs.EventJobFailed
}

// handleJobEvents serves GET /v1/jobs/{id}/events: the job's telemetry
// as an SSE stream. The current state is replayed on connect — a
// subscriber attaching after the job finished still receives a progress
// snapshot and the terminal event, never a silent hang — then live
// events follow until the job reaches a terminal state, the client
// disconnects, or the server drains.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, j *job) {
	if !canStream(w) {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by the underlying connection")
		return
	}

	// Subscribe before snapshotting, so no event falls between the
	// snapshot and the live tail.
	sub := s.bus.Subscribe(s.cfg.EventBuffer, jobStreamTypes...)
	defer sub.Close()

	sw := &sseWriter{w: w, rc: http.NewResponseController(w)}
	if err := sw.start("stream for job " + j.id); err != nil {
		return
	}
	replay, terminal := s.jobSnapshotEvents(j)
	for _, ev := range replay {
		if sw.writeEvent(ev) != nil {
			return
		}
	}
	if terminal {
		return
	}
	s.streamLoop(r, sw, sub, j.id)
}

// handleEvents serves GET /v1/events: the full telemetry firehose as an
// SSE stream, optionally narrowed with ?types=job_completed,shed,… to a
// comma-separated subset of event types.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var types []obs.EventType
	if raw := r.URL.Query().Get("types"); raw != "" {
		for _, name := range strings.Split(raw, ",") {
			t := obs.EventType(strings.TrimSpace(name))
			if !t.Valid() {
				writeError(w, http.StatusBadRequest, fmt.Sprintf(
					"unknown event type %q (want a subset of %s)", name, eventTypeList()))
				return
			}
			types = append(types, t)
		}
	}
	if !canStream(w) {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by the underlying connection")
		return
	}

	sub := s.bus.Subscribe(s.cfg.EventBuffer, types...)
	defer sub.Close()
	sw := &sseWriter{w: w, rc: http.NewResponseController(w)}
	if err := sw.start("event stream connected"); err != nil {
		return
	}
	s.streamLoop(r, sw, sub, "")
}

// streamLoop tails a subscription onto an SSE connection until the
// client goes away, the server drains, a write fails, the subscriber
// falls a full buffer behind, or (when jobID is set) the job's terminal
// event has been delivered.
func (s *Server) streamLoop(r *http.Request, sw *sseWriter, sub *obs.EventSub, jobID string) {
	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.streamCtx.Done():
			_ = sw.comment("server draining")
			return
		case <-keepalive.C:
			if sw.comment("keepalive") != nil {
				return
			}
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if jobID != "" && ev.Job != jobID {
				continue
			}
			if sw.writeEvent(ev) != nil {
				return
			}
			if jobID != "" && terminalEvent(ev.Type) {
				return
			}
			if sub.Dropped() > uint64(s.cfg.EventBuffer) {
				// The client consumes slower than events arrive and has
				// already lost more than a full buffer: cut it loose
				// rather than stream silent gaps forever.
				obs.C("server_sse_slow_disconnects_total").Inc()
				_ = sw.comment("disconnected: client too slow, events dropped")
				return
			}
		}
	}
}

// jobSnapshotEvents renders a job's current state as synthetic events
// (Seq 0: they never occupy bus sequence numbers): always a progress
// snapshot, the latest yield estimate when the build has published one,
// plus the terminal event when the job already finished.
func (s *Server) jobSnapshotEvents(j *job) (evs []obs.Event, terminal bool) {
	s.jobsReg.mu.Lock()
	state, class, errMsg := j.state, j.class, j.errMsg
	started, finished := j.started, j.finished
	s.jobsReg.mu.Unlock()
	done, total := j.scope.Progress()

	now := time.Now().UnixMilli()
	evs = append(evs, obs.Event{TimeMS: now, Type: obs.EventJobProgress,
		Job: j.id, Done: done, Total: total})
	if e := j.estimate.Load(); e != nil {
		evs = append(evs, obs.Event{TimeMS: now, Type: obs.EventJobEstimate,
			Job: j.id, Yield: e.Yield, CILow: e.CILow, CIHigh: e.CIHigh,
			Done: int64(e.Chips), Total: int64(e.Total)})
	}
	switch state {
	case jobDone:
		elapsed := 0.0
		if !started.IsZero() {
			elapsed = finished.Sub(started).Seconds() * 1e3
		}
		evs = append(evs, obs.Event{TimeMS: now, Type: obs.EventJobCompleted,
			Job: j.id, Class: string(class), Done: done, Total: total, ElapsedMS: elapsed})
		terminal = true
	case jobFailed:
		evs = append(evs, obs.Event{TimeMS: now, Type: obs.EventJobFailed,
			Job: j.id, Class: string(class), Error: errMsg, Done: done, Total: total})
		terminal = true
	}
	return evs, terminal
}

// eventTypeList returns the valid event type names for error messages.
func eventTypeList() string {
	types := obs.EventTypes()
	names := make([]string, len(types))
	for i, t := range types {
		names[i] = string(t)
	}
	return strings.Join(names, ", ")
}
