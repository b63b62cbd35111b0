package server

import (
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
	"yieldcache/internal/store"
)

// Job lifecycle states reported by /v1/jobs.
const (
	jobQueued  = "queued"  // admitted, waiting for a worker slot
	jobRunning = "running" // building the populations
	jobDone    = "done"    // finished, result published
	jobFailed  = "failed"  // finished with an error (timeout, cancel, …)
)

// jobKindSweep marks a design-space sweep job (kindName of a sweep);
// the empty kind is a study build. The value is persisted in
// store.JobRecord.Kind.
const jobKindSweep = "sweep"

// kindName is a job's kind as JobSummary.Kind and store.JobRecord.Kind
// carry it: its noun, left empty for studies, which predate the field.
func kindName(k jobKind) string {
	if n := k.noun(); n != "study" {
		return n
	}
	return ""
}

// job is one admitted build and its telemetry scope. The scope's
// progress counters are updated lock-free by the build workers; every
// other mutable field is guarded by the owning jobRegistry's mutex.
type job struct {
	id    string
	seq   int64
	key   string // canonical study/sweep key; ties cache hits back to the job
	scope *obs.Scope

	// kind is "" for study builds, "sweep" for design-space sweeps.
	kind string

	// Echoed request parameters, immutable after creation.
	seed        int64
	chips       int
	constraints string
	schemes     []string

	created  time.Time // first admission; survives resume for display
	admitted time.Time // admission into THIS server lifetime; queue waits measure from here
	state    string
	started  time.Time // worker slot acquired
	finished time.Time
	errMsg   string
	class    obs.ErrClass // terminal error class; "" until finished

	// restarts counts crash resumes; priorWaitMS accumulates the queue
	// waits spent before each restart, so QueueWaitMS stays honest
	// across a server's lifetimes.
	restarts    int
	priorWaitMS float64

	cacheHits atomic.Int64 // later requests served from this job's cached result
	coalesced atomic.Int64 // concurrent identical requests that waited on this build

	// estimate is the most recent streaming yield estimate published by
	// the build (a detached copy; nil until the first snapshot), served
	// at /v1/jobs/{id}/estimate. earlyStop records that a precision
	// target truncated the build.
	estimate  atomic.Pointer[yieldcache.YieldEstimate]
	earlyStop atomic.Bool
}

// jobRegistry tracks in-flight jobs and a bounded FIFO history of
// finished ones, so /v1/jobs stays inspectable without growing without
// bound. In-flight jobs are never evicted (the admission queue already
// bounds them); finished jobs beyond maxDone are dropped oldest-first.
// Every created job's scope is attached to the server's event bus, so
// build progress and phase transitions stream to SSE subscribers.
type jobRegistry struct {
	mu      sync.Mutex
	seq     int64
	byID    map[string]*job
	byKey   map[string]*job // most recent build per canonical key
	done    []*job          // finished jobs, oldest first
	maxDone int

	bus            *obs.EventBus // scopes publish progress/phase events here
	streamInterval time.Duration // job_progress throttle
}

func newJobRegistry(maxDone int, bus *obs.EventBus, streamInterval time.Duration) *jobRegistry {
	return &jobRegistry{
		byID:           make(map[string]*job),
		byKey:          make(map[string]*job),
		maxDone:        maxDone,
		bus:            bus,
		streamInterval: streamInterval,
	}
}

// create registers a queued job for one admitted build of k. base is
// the server's logger; the job's scope stamps it with the job id.
func (r *jobRegistry) create(k jobKind, base *slog.Logger) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.newJobLocked(k.record(), k, base)
	j.state = jobQueued
	j.scope.AttachEvents(r.bus, r.streamInterval)
	r.byID[j.id] = j
	r.byKey[j.key] = j
	return j
}

// createFailed registers a job that never ran — a shed request — in
// its terminal state, so /v1/jobs shows refused work alongside the
// builds. The job goes straight into the bounded finished history and
// deliberately stays out of byKey: a later cache hit on the same study
// must attribute to the job that actually built the entry.
func (r *jobRegistry) createFailed(k jobKind, class obs.ErrClass, msg string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.newJobLocked(k.record(), k, nil)
	j.state = jobFailed
	j.finished = j.created
	j.class = class
	j.errMsg = msg
	j.scope.AttachEvents(r.bus, r.streamInterval)
	r.byID[j.id] = j
	r.done = append(r.done, j)
	r.evictLocked()
	return j
}

// newJobLocked builds the job of kind k for rec, which holds the
// request fields the job echoes: a new job (rec is k.record()) gets the
// next id and k's cache key, a job restored from the store keeps its
// persisted id, key, creation time, restart count and queue wait. The
// caller holds r.mu and sets the lifecycle state.
func (r *jobRegistry) newJobLocked(rec store.JobRecord, k jobKind, base *slog.Logger) *job {
	created := time.Now()
	if rec.ID == "" {
		r.seq++
		rec.ID, rec.Seq, rec.Key = fmt.Sprintf("j%06d", r.seq), r.seq, k.cacheKey()
	} else {
		r.seq = max(r.seq, rec.Seq)
		created = time.UnixMilli(rec.CreatedUnixMS)
	}
	return &job{
		id: rec.ID, seq: rec.Seq, key: rec.Key, kind: kindName(k),
		scope: obs.NewScope(rec.ID, base),
		seed:  rec.Seed, chips: rec.Chips,
		constraints: rec.ConsName, schemes: rec.Schemes,
		created: created, admitted: created,
		restarts: rec.Restarts, priorWaitMS: rec.QueueWaitMS,
	}
}

// markRunning transitions a job to running and returns its queue wait
// (within this server lifetime; resumed jobs carry earlier waits in
// priorWaitMS).
func (r *jobRegistry) markRunning(j *job) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	j.state = jobRunning
	j.started = time.Now()
	return j.started.Sub(j.admitted)
}

// finish transitions a job to done/failed — stamping its error class —
// and folds it into the bounded history, evicting oldest finished jobs
// beyond the cap.
func (r *jobRegistry) finish(j *job, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j.finished = time.Now()
	j.class = obs.ClassifyError(err)
	if err != nil {
		j.state, j.errMsg = jobFailed, err.Error()
	} else {
		j.state = jobDone
	}
	r.done = append(r.done, j)
	r.evictLocked()
}

// evictLocked drops the oldest finished jobs beyond the history cap;
// the caller holds r.mu.
func (r *jobRegistry) evictLocked() {
	for len(r.done) > r.maxDone {
		old := r.done[0]
		r.done = r.done[1:]
		delete(r.byID, old.id)
		if r.byKey[old.key] == old {
			delete(r.byKey, old.key)
		}
	}
}

// get returns the job by id.
func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// lookupKey returns the most recent job that built the given canonical
// key, if it is still within the bounded history.
func (r *jobRegistry) lookupKey(key string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byKey[key]
	return j, ok
}

// all returns every tracked job, newest first.
func (r *jobRegistry) all() []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*job, 0, len(r.byID))
	for _, j := range r.byID {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq > out[b].seq })
	return out
}

// summary snapshots the mutable state under the registry lock.
func (r *jobRegistry) summary(j *job) JobSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.summaryLocked(j)
}

func (r *jobRegistry) summaryLocked(j *job) JobSummary {
	done, total := j.scope.Progress()
	return JobSummary{
		ID:          j.id,
		Kind:        j.kind,
		State:       j.state,
		Seed:        j.seed,
		Chips:       j.chips,
		Constraints: j.constraints,
		Schemes:     j.schemes,
		CreatedAt:   j.created.UTC(),
		ChipsDone:   done,
		ChipsTotal:  total,
		Class:       string(j.class),
		Resumed:     j.restarts > 0,
		Restarts:    j.restarts,
		EarlyStop:   j.earlyStop.Load(),
	}
}

// chipRate is the build_chips_per_second gauge at now: the sum, over
// running studies, of chips done per second since the job started.
// Sweeps are left out: their progress counts configs, not chips.
func (r *jobRegistry) chipRate(now time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	rate := 0.0
	for _, j := range r.byID {
		if j.state != jobRunning || j.kind != "" {
			continue
		}
		if secs := now.Sub(j.started).Seconds(); secs > 0 {
			done, _ := j.scope.Progress()
			rate += float64(done) / secs
		}
	}
	return rate
}

// handleJobs serves GET /v1/jobs: every in-flight job plus the bounded
// finished history, newest first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobsReg.all()
	out := JobsResponse{Jobs: make([]JobSummary, 0, len(jobs)), HistoryCap: s.jobsReg.maxDone}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, s.jobsReg.summary(j))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleJob serves GET /v1/jobs/{id}: live state, queue wait, progress,
// an EWMA-based completion estimate, and cache-hit provenance.
func (s *Server) handleJob(w http.ResponseWriter, _ *http.Request, j *job) {
	writeJSON(w, http.StatusOK, s.jobDetail(j))
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's phase spans
// in the Chrome trace_event JSON format, readable at chrome://tracing
// or ui.perfetto.dev. For a running job the trace is a live snapshot
// with open spans closed at "now".
func (s *Server) handleJobTrace(w http.ResponseWriter, _ *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/json")
	_ = j.scope.Tracer.WriteChromeTrace(w)
}

// handleJobEstimate serves GET /v1/jobs/{id}/estimate: the job's most
// recent streaming yield estimate — live confidence intervals while the
// build runs, the final estimate once it is done. A job whose build has
// not yet published a snapshot (or that never ran) returns 404.
func (s *Server) handleJobEstimate(w http.ResponseWriter, _ *http.Request, j *job) {
	e := j.estimate.Load()
	if e == nil {
		writeError(w, http.StatusNotFound, "no estimate published yet for this job")
		return
	}
	s.jobsReg.mu.Lock()
	state := j.state
	s.jobsReg.mu.Unlock()
	writeJSON(w, http.StatusOK, JobEstimateResponse{
		Job: j.id, State: state, Estimate: toEstimateInfo(e),
	})
}

// jobDetail assembles the GET /v1/jobs/{id} body. The ETA blends the
// server's smoothed build estimate (the same EWMA behind Retry-After)
// with the job's own progress fraction; when no build has ever
// completed, it extrapolates from the job's chips/sec so far.
func (s *Server) jobDetail(j *job) JobDetail {
	s.jobsReg.mu.Lock()
	sum := s.jobsReg.summaryLocked(j)
	started, finished := j.started, j.finished
	admitted := j.admitted
	priorWait := j.priorWaitMS
	errMsg := j.errMsg
	s.jobsReg.mu.Unlock()

	d := JobDetail{
		JobSummary: sum,
		CacheHits:  j.cacheHits.Load(),
		Coalesced:  j.coalesced.Load(),
		Error:      errMsg,
		TraceURL:   "/v1/jobs/" + sum.ID + "/trace",
	}
	now := time.Now()
	switch sum.State {
	case jobQueued:
		d.QueueWaitMS = priorWait + now.Sub(admitted).Seconds()*1e3
	default:
		// Jobs restored from the store (and create-time failures) never
		// ran in this process: started is zero and priorWaitMS already
		// holds the whole recorded wait.
		d.QueueWaitMS = priorWait
		if !started.IsZero() {
			d.QueueWaitMS += started.Sub(admitted).Seconds() * 1e3
		}
	}
	switch sum.State {
	case jobRunning:
		d.ElapsedMS = now.Sub(started).Seconds() * 1e3
	case jobDone, jobFailed:
		if !started.IsZero() {
			d.ElapsedMS = finished.Sub(started).Seconds() * 1e3
		}
	}

	est := math.Float64frombits(s.buildEWMA.Load())
	switch sum.State {
	case jobQueued:
		if est > 0 {
			d.EtaMS = est * 1e3
		}
	case jobRunning:
		remaining := 1.0
		if sum.ChipsTotal > 0 {
			remaining = 1 - float64(sum.ChipsDone)/float64(sum.ChipsTotal)
		}
		switch {
		case est > 0:
			d.EtaMS = est * remaining * 1e3
		case sum.ChipsDone > 0 && sum.ChipsTotal > 0:
			// First-ever build: extrapolate from this job's own rate.
			perChip := d.ElapsedMS / float64(sum.ChipsDone)
			d.EtaMS = perChip * float64(sum.ChipsTotal-sum.ChipsDone)
		}
	}
	return d
}

// observePhases folds a finished job's span durations into the global
// per-phase build-duration histograms on /metrics, labelled by span
// name. Every span a job scope carries has a constant name, so the
// label set is fixed (TestBuildPhaseHistogramsInMetrics lists it). The
// queue_wait span is skipped — it has its own server_queue_wait_seconds
// histogram.
func (s *Server) observePhases(sc *obs.Scope) {
	if sc == nil || sc.Tracer == nil {
		return
	}
	for _, sp := range sc.Tracer.Spans() {
		if sp.Open || sp.Name == "queue_wait" {
			continue
		}
		obs.H(`server_build_phase_seconds{phase="`+sp.Name+`"}`,
			obs.ExpBuckets(1e-4, 4, 10)).Observe((sp.End - sp.Start).Seconds())
	}
}
