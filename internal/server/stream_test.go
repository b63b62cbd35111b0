package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id, event, data string
}

// readSSE parses frames from body until stop returns true or the
// stream ends. Comment-only frames (keepalives, markers) are skipped.
func readSSE(t *testing.T, body io.Reader, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
				if stop != nil && stop(cur) {
					return out
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return out
}

func decodeEvent(t *testing.T, fr sseEvent) obs.Event {
	t.Helper()
	var ev obs.Event
	if err := json.Unmarshal([]byte(fr.data), &ev); err != nil {
		t.Fatalf("decoding event %q data %q: %v", fr.event, fr.data, err)
	}
	return ev
}

// A subscriber attaching while the build runs must see live progress
// and the terminal completion event, each frame flushed as it happens.
func TestJobEventsStreamMidBuild(t *testing.T) {
	srv := New(Config{Workers: 1, StreamInterval: -1})
	defer srv.Close()
	started := make(chan struct{})
	attached := make(chan struct{})
	srv.build = func(ctx context.Context, cfg yieldcache.StudyConfig) (*yieldcache.Study, error) {
		sc := obs.ScopeFrom(ctx)
		sc.SetProgressTotal(int64(cfg.Chips))
		close(started)
		<-attached // hold the build until the SSE client is connected
		for i := 0; i < cfg.Chips; i++ {
			sc.AddProgress(1)
		}
		// Scope-free context: the fake drives the scope's progress itself.
		return yieldcache.NewStudyCtx(context.Background(), yieldcache.StudyConfig{Chips: 20, Seed: cfg.Seed})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/study", "application/json",
			strings.NewReader(`{"chips": 8, "seed": 11}`))
		if err != nil {
			post <- nil
			return
		}
		resp.Body.Close()
		post <- resp
	}()
	<-started

	// The build is mid-flight; its id is visible on /v1/jobs.
	jresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs JobsResponse
	if err := json.NewDecoder(jresp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if len(jobs.Jobs) != 1 {
		t.Fatalf("jobs = %+v, want exactly one", jobs.Jobs)
	}
	id := jobs.Jobs[0].ID

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	close(attached)

	frames := readSSE(t, sresp.Body, func(fr sseEvent) bool { return fr.event == "job_completed" })
	if resp := <-post; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("study request failed: %+v", resp)
	}

	var progress, completed int
	for _, fr := range frames {
		ev := decodeEvent(t, fr)
		if ev.Job != id {
			t.Errorf("event for job %q on a %q stream", ev.Job, id)
		}
		switch fr.event {
		case "job_progress":
			progress++
		case "job_completed":
			completed++
			if ev.Class != "ok" || ev.Done != ev.Total || ev.Done == 0 {
				t.Errorf("terminal event = %+v, want class ok and done == total > 0", ev)
			}
		}
	}
	if progress == 0 {
		t.Error("no job_progress events observed mid-build")
	}
	if completed != 1 {
		t.Errorf("job_completed events = %d, want 1 (stream must end at the terminal event)", completed)
	}
}

// A late subscriber to a finished job gets a replayed snapshot plus the
// terminal event and the stream closes — it never hangs waiting for
// events that already happened.
func TestJobEventsReplayOnFinishedJob(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _, _ := postStudy(t, ts.URL, `{"chips": 20, "seed": 5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("study: status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatal("no X-Job-Id on the study response")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()

	// The handler returns after the replayed terminal event, so the body
	// ends on its own: read it all.
	frames := readSSE(t, sresp.Body, nil)
	if len(frames) != 3 || frames[0].event != "job_progress" ||
		frames[1].event != "job_estimate" || frames[2].event != "job_completed" {
		t.Fatalf("replay frames = %+v, want job_progress, job_estimate, then job_completed", frames)
	}
	est := decodeEvent(t, frames[1])
	if est.Yield <= 0 || est.CILow >= est.Yield || est.CIHigh <= est.Yield || est.Done != 20 {
		t.Errorf("replayed estimate event = %+v", est)
	}
	term := decodeEvent(t, frames[2])
	if term.Class != "ok" || term.Done != 20 || term.Total != 20 || term.ElapsedMS <= 0 {
		t.Errorf("replayed terminal event = %+v", term)
	}
	if frames[1].id != "" || frames[2].id != "" {
		t.Errorf("replayed events carry bus seq ids %q/%q, want none", frames[1].id, frames[2].id)
	}
}

// The firehose honours ?types= filtering and rejects unknown types.
func TestEventsFirehoseTypeFilter(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The 400 body lists the valid types in a fixed order, so two
	// identical bad requests get identical bodies.
	var bodies [2]string
	for i := range bodies {
		resp, err := http.Get(ts.URL + "/v1/events?types=bogus")
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(bodies[i], "unknown event type") {
			t.Errorf("types=bogus: status %d, body %q; want 400 unknown event type", resp.StatusCode, bodies[i])
		}
	}
	if bodies[0] != bodies[1] {
		t.Errorf("identical bad requests got different bodies:\n%s\n%s", bodies[0], bodies[1])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/events?types=job_completed,shed", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()

	got := make(chan []sseEvent, 1)
	go func() {
		got <- readSSE(t, sresp.Body, func(fr sseEvent) bool { return fr.event == "job_completed" })
	}()
	// Wait for the subscription to be live before generating events:
	// the stream registers before sending its opening comment, so one
	// subscriber on the bus means the filter is in place.
	deadline := time.Now().Add(2 * time.Second)
	for srv.bus.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r2, _, _ := postStudy(t, ts.URL, `{"chips": 20, "seed": 9}`); r2.StatusCode != http.StatusOK {
		t.Fatalf("study: status %d", r2.StatusCode)
	}

	frames := <-got
	if len(frames) == 0 {
		t.Fatal("firehose delivered nothing")
	}
	for _, fr := range frames {
		if fr.event != "job_completed" && fr.event != "shed" {
			t.Errorf("filtered firehose leaked a %q event", fr.event)
		}
	}
	last := frames[len(frames)-1]
	if last.event != "job_completed" {
		t.Errorf("last frame = %q, want job_completed", last.event)
	}
	if last.id == "" {
		t.Error("live event carries no bus seq id")
	}
}

// Each event type below reaches the firehose when the server does what
// publishes it: the case's drive runs against a fresh server while a
// client streams /v1/events?types=<type>, and check inspects the first
// frame against the subject drive returns: the job id, the evicted
// cache key, or "" when the event names neither.
func TestEventsFirehosePublishesEachType(t *testing.T) {
	failing := func(context.Context, yieldcache.StudyConfig) (*yieldcache.Study, error) {
		return nil, errors.New("injected build failure")
	}
	post := func(t *testing.T, url, body string, want int) string {
		t.Helper()
		resp, _, _ := postStudy(t, url, body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", body, resp.StatusCode, want)
		}
		return resp.Header.Get("X-Job-Id")
	}
	cases := []struct {
		typ   obs.EventType
		cfg   Config
		drive func(t *testing.T, srv *Server, url string) string
		check func(ev obs.Event, job string) bool
	}{
		{
			typ: obs.EventJobStarted, cfg: Config{Workers: 1},
			drive: func(t *testing.T, srv *Server, url string) string {
				return post(t, url, `{"chips": 20, "seed": 1}`, http.StatusOK)
			},
			check: func(ev obs.Event, job string) bool { return ev.Job == job && ev.Total == 20 },
		},
		{
			typ: obs.EventJobFailed, cfg: Config{Workers: 1},
			drive: func(t *testing.T, srv *Server, url string) string {
				srv.build = failing
				return post(t, url, `{"chips": 20, "seed": 1}`, http.StatusInternalServerError)
			},
			check: func(ev obs.Event, job string) bool {
				return ev.Job == job && ev.Class == string(obs.ClassInternal) &&
					strings.Contains(ev.Error, "injected build failure")
			},
		},
		{
			typ: obs.EventCacheEvict, cfg: Config{Workers: 1, CacheEntries: 1},
			drive: func(t *testing.T, srv *Server, url string) string {
				post(t, url, `{"chips": 20, "seed": 1}`, http.StatusOK)
				post(t, url, `{"chips": 20, "seed": 2}`, http.StatusOK)
				return studyKeyOf(t, srv, `{"chips": 20, "seed": 1}`)
			},
			check: func(ev obs.Event, key string) bool { return ev.Key == key },
		},
		{
			typ: obs.EventQueuePressure, cfg: Config{Workers: 1},
			drive: func(t *testing.T, srv *Server, url string) string {
				release := occupyWorker(t, srv, url)
				defer close(release)
				go func() {
					resp, err := http.Post(url+"/v1/study", "application/json", strings.NewReader(`{"chips": 20, "seed": 2}`))
					if err == nil {
						resp.Body.Close()
					}
				}()
				deadline := time.Now().Add(10 * time.Second)
				for {
					srv.mu.Lock()
					admitted := srv.jobs
					srv.mu.Unlock()
					if admitted >= 2 || time.Now().After(deadline) {
						return ""
					}
					time.Sleep(time.Millisecond)
				}
			},
			check: func(ev obs.Event, _ string) bool { return ev.Queued == 1 && ev.Running == 1 },
		},
	}
	for _, tc := range cases {
		t.Run(string(tc.typ), func(t *testing.T) {
			srv := New(tc.cfg)
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
				ts.URL+"/v1/events?types="+string(tc.typ), nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got := make(chan []sseEvent, 1)
			go func() {
				got <- readSSE(t, resp.Body, func(sseEvent) bool { return true })
			}()
			deadline := time.Now().Add(2 * time.Second)
			for srv.bus.Subscribers() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}

			subject := tc.drive(t, srv, ts.URL)
			frames := <-got
			if len(frames) == 0 {
				t.Fatalf("no %s event on the firehose", tc.typ)
			}
			ev := decodeEvent(t, frames[0])
			if frames[0].event != string(tc.typ) || ev.Type != tc.typ || !tc.check(ev, subject) {
				t.Errorf("first frame %q = %+v (subject %q); want a matching %s event",
					frames[0].event, ev, subject, tc.typ)
			}
		})
	}
}

// slowWriter blocks every Write until released, simulating a client
// that stops reading while events keep arriving.
type slowWriter struct {
	hdr     http.Header
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *slowWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}
func (w *slowWriter) WriteHeader(int) {}
func (w *slowWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
func (w *slowWriter) Flush() {}
func (w *slowWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// A subscriber that falls more than a full buffer behind is cut loose
// instead of silently streaming gaps forever.
func TestStreamDisconnectsSlowClient(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1, EventBuffer: 2})
	defer srv.Close()

	sub := srv.bus.Subscribe(srv.cfg.EventBuffer)
	defer sub.Close()
	w := &slowWriter{release: make(chan struct{})}
	sw := &sseWriter{w: w, rc: http.NewResponseController(w)}
	req := httptest.NewRequest(http.MethodGet, "/v1/events", nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.streamLoop(req, sw, sub, "")
	}()

	// First event: the loop picks it up and blocks inside Write.
	srv.bus.Publish(obs.Event{Type: obs.EventShed, Job: "j000001"})
	deadline := time.Now().Add(2 * time.Second)
	for sub.Dropped() <= uint64(srv.cfg.EventBuffer) && time.Now().Before(deadline) {
		// Flood while the writer is stuck: buffer 2 fills, rest drop.
		srv.bus.Publish(obs.Event{Type: obs.EventShed, Job: "j000002"})
	}
	if sub.Dropped() <= uint64(srv.cfg.EventBuffer) {
		t.Fatalf("dropped = %d, want > %d", sub.Dropped(), srv.cfg.EventBuffer)
	}
	close(w.release) // client "resumes"; the loop must now disconnect it

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("streamLoop did not disconnect the slow client")
	}
	if out := w.String(); !strings.Contains(out, "client too slow") {
		t.Errorf("stream output missing the disconnect notice:\n%s", out)
	}
	if got := reg.Counter("server_sse_slow_disconnects_total").Value(); got != 1 {
		t.Errorf("server_sse_slow_disconnects_total = %d, want 1", got)
	}
}

// Draining ends live streams so a long-lived firehose cannot hold
// graceful shutdown hostage.
func TestDrainEndsEventStreams(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.bus.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	body, _ := io.ReadAll(sresp.Body) // the stream must end on its own
	if !strings.Contains(string(body), "server draining") {
		t.Errorf("stream did not announce the drain:\n%s", body)
	}
}

// A shed request carries the failed job's id and class, and the job is
// inspectable afterwards on /v1/jobs.
func TestShedRecordsFailedJob(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1, QueueDepth: -1})
	defer srv.Close()
	started := make(chan string, 4)
	release := make(chan struct{})
	srv.build, _ = blockingBuilder(started, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/study", "application/json",
			strings.NewReader(`{"chips": 20, "seed": 1}`))
		first <- resp
	}()
	<-started

	resp, _, fail := postStudy(t, ts.URL, `{"chips": 20, "seed": 2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if fail.Class != "shed" {
		t.Errorf("error class = %q, want shed", fail.Class)
	}
	id := resp.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatal("429 without X-Job-Id")
	}

	jresp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var detail JobDetail
	if err := json.NewDecoder(jresp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if detail.State != jobFailed || detail.Class != "shed" || !strings.Contains(detail.Error, "queue is full") {
		t.Errorf("shed job detail = %+v, want failed/shed with a queue-full error", detail.JobSummary)
	}
	if got := reg.Counter(`server_requests_total{class="shed"}`).Value(); got != 1 {
		t.Errorf(`server_requests_total{class="shed"} = %d, want 1`, got)
	}
	if got := reg.Counter("server_study_shed_total").Value(); got != 1 {
		t.Errorf("server_study_shed_total = %d, want 1", got)
	}

	close(release)
	if resp := <-first; resp != nil {
		resp.Body.Close()
	}
}

// A timed-out build returns 504 with the job id and the timeout class,
// on the wire and in the job record.
func TestTimeoutClassOnResponseAndJob(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1})
	defer srv.Close()
	srv.build, _ = blockingBuilder(nil, nil) // only ctx ends the build
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _, fail := postStudy(t, ts.URL, `{"chips": 20, "timeout_ms": 25}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", resp.StatusCode, fail)
	}
	if fail.Class != "timeout" {
		t.Errorf("error class = %q, want timeout", fail.Class)
	}
	id := resp.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatal("504 without X-Job-Id")
	}

	jresp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var detail JobDetail
	if err := json.NewDecoder(jresp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if detail.State != jobFailed || detail.Class != "timeout" {
		t.Errorf("job = state %q class %q, want failed/timeout", detail.State, detail.Class)
	}
	if got := reg.Counter(`server_requests_total{class="timeout"}`).Value(); got != 1 {
		t.Errorf(`server_requests_total{class="timeout"} = %d, want 1`, got)
	}
	if got := reg.Counter("server_study_timeouts_total").Value(); got != 1 {
		t.Errorf("server_study_timeouts_total = %d, want 1", got)
	}
}

// Unknown job ids and wrong methods are rejected cleanly.
func TestStreamEndpointValidation(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/j999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stream: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/events: status %d, want 405", resp.StatusCode)
	}
}

// A cache hit publishes a cache_hit event attributing the producing job.
func TestCacheHitPublishesEvent(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _, _ := postStudy(t, ts.URL, `{"chips": 20, "seed": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("study: status %d", resp.StatusCode)
	}
	producer := resp.Header.Get("X-Job-Id")

	sub := srv.bus.Subscribe(8, obs.EventCacheHit)
	defer sub.Close()
	resp2, res, _ := postStudy(t, ts.URL, `{"chips": 20, "seed": 3}`)
	if resp2.StatusCode != http.StatusOK || !res.Cached {
		t.Fatalf("second study: status %d cached %v", resp2.StatusCode, res.Cached)
	}
	select {
	case ev := <-sub.Events():
		if ev.Type != obs.EventCacheHit || ev.Job != producer || ev.Key == "" {
			t.Errorf("cache_hit event = %+v, want job %q with a key", ev, producer)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no cache_hit event published")
	}
}
