// Package server implements yieldd, the yield-analysis service: an HTTP
// JSON API over the yieldcache facade. Requests name a study by its
// canonical parameters (seed, chips, constraints, scheme set); the
// server runs the Monte Carlo on a bounded worker pool, coalesces
// concurrent identical requests onto one build (singleflight), caches
// finished results by canonical key, sheds load with 429 + Retry-After
// when the queue is full, honours per-request timeouts threaded into
// the population build, and drains in-flight jobs on shutdown.
// docs/API.md documents the wire format; docs/ARCHITECTURE.md places
// the package in the repo's dependency stack.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
	"yieldcache/internal/store"
)

// Config parameterises the service. Zero fields take the defaults
// documented on each field.
type Config struct {
	// Workers is the number of concurrent study builds (default 2; each
	// build already parallelises across all CPUs).
	Workers int
	// QueueDepth is how many builds may wait for a worker beyond the
	// ones running; admission beyond Workers+QueueDepth is refused with
	// 429 (default 8).
	QueueDepth int
	// CacheEntries caps the result cache, evicting oldest-first
	// (default 128; 0 keeps the default, negative disables caching).
	CacheEntries int
	// MaxChips is the largest accepted population size (default 20000).
	MaxChips int
	// MaxSweepConfigs is the largest design-space sweep accepted by
	// POST /v1/sweep, counted in resolved configs (geometry × tech grid ×
	// constraint sets); larger plans are refused with 400 (default 256).
	MaxSweepConfigs int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request timeouts (default 2m).
	MaxTimeout time.Duration
	// JobHistory caps how many finished jobs stay inspectable via
	// /v1/jobs after completion, evicted oldest-first (default 64;
	// negative keeps no history).
	JobHistory int
	// StreamInterval paces the live events of a job: at most one
	// job_progress event and one mid-build job_estimate per interval;
	// the final estimate always streams (default 250ms; negative
	// publishes every chip and every look — tests only).
	StreamInterval time.Duration
	// EventBuffer is the per-SSE-connection event buffer. A subscriber
	// that falls more than a full buffer behind is disconnected rather
	// than allowed to stall the bus (default 64).
	EventBuffer int
	// Logger receives the server's structured logs; per-job logs carry
	// a "job" attribute matching the /v1/jobs id. Nil discards logs
	// (tests); yieldd passes a text or JSON slog handler.
	Logger *slog.Logger
	// Store persists job records, the result cache and idempotency
	// keys so they survive restarts. Nil (the default) disables
	// durability entirely — no storage code runs on any request path.
	// The server replays the store on New and rebuilds incomplete jobs
	// from their requests; the caller owns the store's lifetime (Close).
	Store store.Store
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.MaxChips <= 0 {
		c.MaxChips = 20000
	}
	if c.MaxSweepConfigs <= 0 {
		c.MaxSweepConfigs = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.JobHistory < 0 {
		c.JobHistory = 0
	} else if c.JobHistory == 0 {
		c.JobHistory = 64
	}
	if c.StreamInterval < 0 {
		c.StreamInterval = 0
	} else if c.StreamInterval == 0 {
		c.StreamInterval = 250 * time.Millisecond
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// studyBuilder builds a study; tests swap it for a controllable fake.
type studyBuilder func(ctx context.Context, cfg yieldcache.StudyConfig) (*yieldcache.Study, error)

// call is one in-progress build; requests for the same canonical key
// wait on done instead of building again.
type call struct {
	done chan struct{}
	job  *job        // the build's job-registry entry; immutable
	res  *cacheEntry // the finished result; immutable once done is closed
	err  error
}

// jobKind is what differs between the two computations the job pipeline
// runs: a study (*params) and a design-space sweep (*sweepParams).
// Admission, coalescing, the result cache, Idempotency-Key, durable
// records, crash resume and lifecycle events are shared; once a request
// is parsed (or a persisted record is read back by kindFromRecord), the
// pipeline sees it only through this interface.
type jobKind interface {
	// cacheKey is the canonical cache, singleflight and store key. Keys
	// are namespaced per kind, and so are the idempotency body hashes, so
	// a cache entry found under a kind's key always holds that kind.
	cacheKey() string
	// noun ("study" or "sweep") names the kind in metric names, logs and
	// error text.
	noun() string
	// record holds the request fields the job registry and the persisted
	// store.JobRecord echo; the pipeline fills in the job's kind, identity
	// and lifecycle.
	record() store.JobRecord
	// deadline bounds the build, queue wait included.
	deadline() time.Duration
	// total is the progress total: chips for a study, configs for a sweep.
	total() int
	// compute runs the build and returns its full, unfiltered result.
	compute(ctx context.Context, s *Server, j *job) (*cacheEntry, error)
	// view is the cached:false response body for this request; hitBody
	// is the memoized cached:true body, encoded on its first use.
	view(e *cacheEntry) any
	hitBody(e *cacheEntry) []byte
}

// Server is the yieldd request handler plus its job queue and caches.
type Server struct {
	cfg   Config
	build studyBuilder
	log   *slog.Logger

	baseCtx context.Context // parent of every build; cancelled on forced stop
	cancel  context.CancelFunc

	slots chan struct{} // worker pool: holds a token per running build

	mu       sync.Mutex
	jobs     int // builds admitted (queued + running)
	inflight map[string]*call
	cache    map[string]*cacheEntry
	order    []string // cache keys, oldest first
	draining bool

	store     store.Store                 // nil when durability is disabled
	idem      map[string]store.IdemRecord // Idempotency-Key -> record
	idemByKey map[string][]string         // study key -> idempotency keys bound to it

	jobsReg *jobRegistry // per-job telemetry behind /v1/jobs

	bus *obs.EventBus // live telemetry fan-out behind the SSE endpoints

	streamCtx    context.Context // cancelled on Drain/Close so SSE connections end
	streamCancel context.CancelFunc

	wg sync.WaitGroup // tracks builds for Drain

	buildEWMA atomic.Uint64 // float64 bits: smoothed build seconds, for Retry-After
}

// New returns a Server over the real yieldcache facade.
func New(cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	streamCtx, streamCancel := context.WithCancel(context.Background())
	bus := obs.NewEventBus()
	s := &Server{
		cfg: cfg,
		build: func(ctx context.Context, sc yieldcache.StudyConfig) (*yieldcache.Study, error) {
			return yieldcache.NewStudyCtx(ctx, sc)
		},
		log:          cfg.Logger,
		baseCtx:      ctx,
		cancel:       cancel,
		slots:        make(chan struct{}, cfg.Workers),
		inflight:     make(map[string]*call),
		cache:        make(map[string]*cacheEntry),
		store:        cfg.Store,
		idem:         make(map[string]store.IdemRecord),
		idemByKey:    make(map[string][]string),
		jobsReg:      newJobRegistry(cfg.JobHistory, bus, cfg.StreamInterval),
		bus:          bus,
		streamCtx:    streamCtx,
		streamCancel: streamCancel,
	}
	s.recoverFromStore()
	return s
}

// foldEWMA folds sample x into the smoothed value held as float64 bits
// in v, 70/30 (the first sample seeds it). Lock-free: racing folds
// retry the CAS.
func foldEWMA(v *atomic.Uint64, x float64) {
	for {
		old := v.Load()
		next := x
		if prev := math.Float64frombits(old); prev > 0 {
			next = 0.7*prev + 0.3*x
		}
		if v.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Handler returns the instrumented route table: POST /v1/study,
// POST /v1/sweep, GET /v1/constraints, GET /v1/jobs, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/trace, GET /v1/jobs/{id}/estimate,
// GET /v1/jobs/{id}/events, GET /v1/events, GET /healthz,
// GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/study", obs.Instrument("study", http.HandlerFunc(s.handleStudy)))
	mux.Handle("/v1/sweep", obs.Instrument("sweep", http.HandlerFunc(s.handleSweep)))
	mux.Handle("/v1/constraints", obs.Instrument("constraints", getOnly(s.handleConstraints)))
	mux.Handle("/v1/jobs", obs.Instrument("jobs", getOnly(s.handleJobs)))
	mux.Handle("/v1/jobs/{id}", obs.Instrument("job", getOnly(s.withJob(s.handleJob))))
	mux.Handle("/v1/jobs/{id}/trace", obs.Instrument("job_trace", getOnly(s.withJob(s.handleJobTrace))))
	mux.Handle("/v1/jobs/{id}/estimate", obs.Instrument("job_estimate", getOnly(s.withJob(s.handleJobEstimate))))
	mux.Handle("/v1/jobs/{id}/events", obs.Instrument("job_events", getOnly(s.withJob(s.handleJobEvents))))
	mux.Handle("/v1/events", obs.Instrument("events", getOnly(s.handleEvents)))
	mux.Handle("/healthz", obs.Instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("/metrics", obs.Instrument("metrics", http.HandlerFunc(s.handleMetrics)))
	return mux
}

// getOnly refuses every method but GET with 405 and Allow: GET.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		h(w, r)
	}
}

// withJob resolves the {id} path segment to its job for h, answering
// 404 itself when the id is unknown.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.jobsReg.get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job id (finished jobs are retained up to the -job-history bound)")
			return
		}
		h(w, r, j)
	}
}

// Drain stops admitting new builds (they get 503) and waits for every
// in-flight build to finish, or until ctx expires — in which case the
// remaining builds are cancelled, waited for, and ctx.Err() returned.
// SSE streams are ended up front — a long-lived /v1/events connection
// must not hold graceful shutdown hostage.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.streamCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // force: the population build polls cancellation per chip
		<-done
		return ctx.Err()
	}
}

// Close cancels all in-flight builds and SSE streams immediately.
func (s *Server) Close() {
	s.streamCancel()
	s.cancel()
}

// params is a validated, normalised study request.
type params struct {
	seed    int64
	chips   int
	cons    yieldcache.Constraints
	schemes []string // canonical order, non-empty
	scatter bool
	saved   bool
	timeout time.Duration

	// targetCI > 0 arms precision-targeted stopping at that half-width;
	// confidence is the interval level (resolved to 0.95 when the
	// request names none) and applies to streamed estimates either way.
	targetCI   float64
	confidence float64
}

func (p *params) cacheKey() string        { return p.key() }
func (p *params) noun() string            { return "study" }
func (p *params) deadline() time.Duration { return p.timeout }
func (p *params) total() int              { return p.chips }

func (p *params) record() store.JobRecord {
	return store.JobRecord{
		Seed: p.seed, Chips: p.chips,
		ConsName: p.cons.Name, DelaySigmaK: p.cons.DelaySigmaK, LeakageMult: p.cons.LeakageMult,
		Schemes: p.schemes, TimeoutMS: p.timeout.Milliseconds(),
		TargetCIWidth: p.targetCI, Confidence: p.confidence,
	}
}

func (p *params) view(e *cacheEntry) any { return studyView(e.val.(*StudyResponse), *p, false) }

func (p *params) hitBody(e *cacheEntry) []byte {
	return e.hitBody(hitVariant{scatter: p.scatter, saved: p.saved}, func() []byte {
		return encodeJSON(studyView(e.val.(*StudyResponse), *p, true))
	})
}

// schemeOrder is the canonical scheme order; request scheme sets are
// normalised against it so equivalent requests share a cache key.
var schemeOrder = []string{"YAPD", "VACA", "Hybrid"}

// parseRequest validates a StudyRequest against the server limits and
// resolves defaults.
func (s *Server) parseRequest(req *StudyRequest) (params, error) {
	var p params
	var err error
	if p.seed, p.chips, err = s.resolveSize(req.Seed, req.Chips); err != nil {
		return p, err
	}

	switch {
	case req.CustomConstraints != nil && req.Constraints != "":
		return p, errors.New("constraints and custom_constraints are mutually exclusive")
	case req.CustomConstraints != nil:
		c := req.CustomConstraints
		if c.DelaySigmaK < 0 || c.LeakageMult <= 0 {
			return p, fmt.Errorf("custom_constraints out of range: delay_sigma_k %g (>= 0), leakage_mult %g (> 0)",
				c.DelaySigmaK, c.LeakageMult)
		}
		p.cons = yieldcache.Constraints{Name: "custom", DelaySigmaK: c.DelaySigmaK, LeakageMult: c.LeakageMult}
	case req.Constraints == "":
		p.cons = yieldcache.Nominal()
	default:
		var ok bool
		if p.cons, ok = yieldcache.NamedConstraints(req.Constraints); !ok {
			return p, fmt.Errorf("unknown constraints %q (want nominal, relaxed or strict)", req.Constraints)
		}
	}

	if p.schemes, err = normalizeSchemes(req.Schemes); err != nil {
		return p, err
	}

	p.confidence = 0.95
	if req.Precision != nil {
		pr := req.Precision
		if pr.TargetCIWidth <= 0 || pr.TargetCIWidth >= 1 {
			return p, fmt.Errorf("precision.target_ci_width must be in (0, 1), got %g", pr.TargetCIWidth)
		}
		if pr.Confidence < 0 || pr.Confidence >= 1 {
			return p, fmt.Errorf("precision.confidence must be in (0, 1), got %g", pr.Confidence)
		}
		p.targetCI = pr.TargetCIWidth
		if pr.Confidence > 0 {
			p.confidence = pr.Confidence
		}
	}

	p.scatter = req.IncludeScatter
	p.saved = req.IncludeSavedConfigs
	p.timeout, err = s.resolveTimeout(req.TimeoutMS)
	return p, err
}

// resolveSize applies the seed and population-size defaults (2006 and
// 2000) and the chips limit that studies and sweeps share.
func (s *Server) resolveSize(seed int64, chips int) (int64, int, error) {
	if seed == 0 {
		seed = 2006
	}
	if chips == 0 {
		chips = 2000
	}
	if chips < 0 {
		return seed, chips, fmt.Errorf("chips must be positive, got %d", chips)
	}
	if chips > s.cfg.MaxChips {
		return seed, chips, fmt.Errorf("chips %d exceeds the server limit %d", chips, s.cfg.MaxChips)
	}
	return seed, chips, nil
}

// resolveTimeout turns a request's timeout_ms into its deadline: the
// server default when unset, clamped to MaxTimeout.
func (s *Server) resolveTimeout(ms int) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("timeout_ms must be positive, got %d", ms)
	}
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeout), nil
}

// normalizeSchemes validates a scheme subset and returns it in
// canonical order (empty means all).
func normalizeSchemes(names []string) ([]string, error) {
	if len(names) == 0 {
		return schemeOrder, nil
	}
	want := make(map[string]bool, len(names))
	for _, name := range names {
		ok := false
		for _, known := range schemeOrder {
			if name == known {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q (want a subset of %s)",
				name, strings.Join(schemeOrder, ", "))
		}
		want[name] = true
	}
	var out []string
	for _, known := range schemeOrder {
		if want[known] {
			out = append(out, known)
		}
	}
	return out, nil
}

// key is the canonical cache/singleflight key: every request that must
// produce the same populations and breakdown columns shares it. The
// include_* presentation flags and the timeout are deliberately
// excluded — they shape the response, not the computation. A precision
// target joins the key (it can truncate the populations); its absence
// leaves the key bit-compatible with records from earlier versions.
func (p params) key() string {
	k := fmt.Sprintf("%d/%d/%s:%x:%x/%s",
		p.seed, p.chips, p.cons.Name, p.cons.DelaySigmaK, p.cons.LeakageMult,
		strings.Join(p.schemes, "+"))
	if p.targetCI > 0 {
		k += fmt.Sprintf("/ci:%x@%x", p.targetCI, p.confidence)
	}
	return k
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	var req StudyRequest
	body, ok := readRequest(w, r, &req)
	if !ok {
		return
	}
	p, err := s.parseRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.handle(w, r, &p, body)
}

// readRequest decodes a POST body into req, answering the request itself
// (405 or 400) when it cannot. The raw body is returned because the
// idempotency layer hashes the exact bytes the client sent.
func readRequest(w http.ResponseWriter, r *http.Request, req any) ([]byte, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	return body, true
}

// handle runs one parsed request through the job pipeline: an
// Idempotency-Key replay, a cache hit, coalescing onto the in-flight
// build of the same key, a 503 while draining, a 429 when the queue is
// full, or admission of a new build. idemBody is what an
// Idempotency-Key binds to: the raw request body, salted per endpoint.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, k jobKind, idemBody []byte) {
	key, noun := k.cacheKey(), k.noun()
	idemKey := r.Header.Get("Idempotency-Key")
	if len(idemKey) > maxIdemKeyLen {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("Idempotency-Key longer than %d bytes", maxIdemKeyLen))
		return
	}
	var bodyHash string
	if idemKey != "" {
		sum := sha256.Sum256(idemBody)
		bodyHash = hex.EncodeToString(sum[:])
	}

	s.mu.Lock()
	if idemKey != "" && s.idemLookupLocked(w, r, idemKey, bodyHash, k) {
		return
	}
	if e := s.cache[key]; e != nil {
		s.mu.Unlock()
		obs.C("server_" + noun + "_cache_hits_total").Inc()
		jobID := ""
		if j, ok := s.jobsReg.lookupKey(key); ok {
			j.cacheHits.Add(1)
			jobID = j.id
		}
		s.bus.Publish(obs.Event{Type: obs.EventCacheHit, Job: jobID, Key: key})
		s.log.Debug(noun+" served from cache", "job", jobID, "key", key)
		s.recordIdem(idemKey, bodyHash, key, jobID)
		writeHit(w, k.hitBody(e), jobID)
		return
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		obs.C("server_" + noun + "_coalesced_total").Inc()
		c.job.coalesced.Add(1)
		s.recordIdem(idemKey, bodyHash, key, c.job.id)
		s.await(w, r, c, k)
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.jobs >= s.cfg.Workers+s.cfg.QueueDepth {
		admitted := s.jobs
		s.mu.Unlock()
		obs.C("server_" + noun + "_shed_total").Inc()
		j := s.jobsReg.createFailed(k, obs.ClassShed, "build queue is full")
		s.bus.Publish(obs.Event{Type: obs.EventShed, Job: j.id, Key: key,
			Class: string(obs.ClassShed), Queued: admitted})
		s.log.Warn(noun+" shed: build queue full", "job", j.id, "key", key,
			"admitted", s.cfg.Workers+s.cfg.QueueDepth)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		w.Header().Set("X-Job-Id", j.id)
		writeError(w, http.StatusTooManyRequests, "build queue is full")
		return
	}
	c := &call{done: make(chan struct{}), job: s.jobsReg.create(k, s.log)}
	s.inflight[key] = c
	s.jobs++
	admitted := s.jobs
	s.wg.Add(1)
	s.mu.Unlock()
	obs.C("server_" + noun + "_cache_misses_total").Inc()
	s.bus.Publish(obs.Event{Type: obs.EventJobAdmitted, Job: c.job.id, Key: key,
		Total: int64(k.total())})
	if admitted > s.cfg.Workers {
		// More admitted builds than worker slots: someone is queueing.
		s.bus.Publish(obs.Event{Type: obs.EventQueuePressure,
			Queued: admitted - s.cfg.Workers, Running: s.cfg.Workers})
	}
	c.job.scope.Log().Info("job admitted",
		"seed", c.job.seed, "chips", c.job.chips, "constraints", c.job.constraints,
		"schemes", strings.Join(c.job.schemes, "+"), "total", k.total(), "timeout", k.deadline())
	s.recordIdem(idemKey, bodyHash, key, c.job.id)
	s.persistJob(c.job, k, jobQueued)

	go s.run(k, c)
	s.await(w, r, c, k)
}

// run executes one admitted build: queue for a worker slot, compute
// under the request timeout, publish the result to the cache and wake
// every waiter. It runs detached from the initiating request so a
// client disconnect does not waste the work for coalesced waiters. The
// build context carries the job's telemetry scope, so every phase span
// and the progress counter are attributable to this job alone. A build
// whose result is not cached (it failed, or the cache is off) expires
// the idempotency keys bound to it: there is nothing for them to replay.
func (s *Server) run(k jobKind, c *call) {
	defer s.wg.Done()
	j := c.job
	ctx, cancel := context.WithTimeout(s.baseCtx, k.deadline())
	defer cancel()
	ctx = obs.WithScope(ctx, j.scope)

	qsp := j.scope.StartSpan("queue_wait")
	select {
	case s.slots <- struct{}{}:
		qsp.End()
		wait := s.jobsReg.markRunning(j)
		obs.H("server_queue_wait_seconds", obs.ExpBuckets(1e-4, 4, 10)).
			Observe(wait.Seconds())
		s.bus.Publish(obs.Event{Type: obs.EventJobStarted, Job: j.id,
			QueueWaitMS: wait.Seconds() * 1e3, Total: int64(k.total())})
		j.scope.Log().Info("build started", "queue_wait_ms", wait.Seconds()*1e3)
		s.persistJob(j, k, jobRunning)
		c.res, c.err = k.compute(ctx, s, j)
		<-s.slots
	case <-ctx.Done():
		qsp.End()
		c.err = fmt.Errorf("waiting for a worker: %w", ctx.Err())
	}

	s.observePhases(j.scope)
	s.jobsReg.finish(j, c.err)
	done, total := j.scope.Progress()
	if c.err != nil {
		s.bus.Publish(obs.Event{Type: obs.EventJobFailed, Job: j.id,
			Class: string(j.class), Error: c.err.Error(), Done: done, Total: total})
		j.scope.Log().Error("job failed", "error", c.err.Error(), "class", j.class)
	} else {
		elapsed := c.res.val.elapsedMS()
		s.bus.Publish(obs.Event{Type: obs.EventJobCompleted, Job: j.id,
			Class: string(obs.ClassOK), Done: done, Total: total, ElapsedMS: elapsed})
		j.scope.Log().Info("job done", "done", done, "total", total, "elapsed_ms", elapsed)
	}

	var evicted, expiredIdem []string
	cached := false
	s.mu.Lock()
	delete(s.inflight, j.key)
	if c.err == nil {
		c.res.noun = k.noun()
		cached, evicted, expiredIdem = s.cacheInsertLocked(j.key, c.res)
	}
	if s.cache[j.key] == nil {
		expiredIdem = append(expiredIdem, s.expireIdemLocked(j.key)...)
	}
	s.jobs--
	s.mu.Unlock()
	for _, old := range evicted {
		s.bus.Publish(obs.Event{Type: obs.EventCacheEvict, Key: old})
	}
	s.persistOutcome(j, k, c, cached, evicted, expiredIdem)
	close(c.done)
}

// compute builds the populations and assembles the full (unfiltered)
// response. Scatter and saved configurations are always computed — they
// are cheap next to the build — so a cached entry can serve any
// combination of include_* flags. A resumed call builds from chip 0,
// like a fresh one.
func (p *params) compute(ctx context.Context, s *Server, j *job) (*cacheEntry, error) {
	t0 := time.Now()
	scfg := yieldcache.StudyConfig{Chips: p.chips, Seed: p.seed, Constraints: &p.cons}
	scfg.Estimate = s.estimateConfig(*p, j)
	study, err := s.build(ctx, scfg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0).Seconds()
	obs.H("server_build_seconds", obs.ExpBuckets(1e-3, 4, 10)).Observe(elapsed)
	foldEWMA(&s.buildEWMA, elapsed)

	asp := obs.StartSpanCtx(ctx, "assemble_response")
	defer asp.End()
	extra := []yieldcache.Constraints{yieldcache.Relaxed(), yieldcache.Strict()}
	res := &StudyResponse{
		Seed:  p.seed,
		Chips: p.chips,
		Constraints: ConstraintsInfo{
			Name:        p.cons.Name,
			DelaySigmaK: p.cons.DelaySigmaK,
			LeakageMult: p.cons.LeakageMult,
		},
		Limits:           LimitsInfo{DelayPS: study.Limits.DelayPS, LeakageW: study.Limits.LeakageW},
		Regular:          toBreakdown(study.Breakdown(regularSchemes(p.schemes)...), p.confidence),
		Horizontal:       toBreakdown(study.BreakdownHorizontal(horizontalSchemes(p.schemes)...), p.confidence),
		RegularTotals:    toTotals(study.Totals(extra, regularSchemes(p.schemes)...)),
		HorizontalTotals: toTotals(study.TotalsHorizontal(extra, horizontalSchemes(p.schemes)...)),
		ElapsedMS:        elapsed * 1e3,
	}
	for _, pt := range study.Figure8() {
		res.Scatter = append(res.Scatter, ScatterPoint{
			LatencyPS:         pt.LatencyPS,
			NormalizedLeakage: pt.NormalizedLeakage,
			Reason:            pt.Reason.String(),
		})
	}
	for _, sc := range study.SavedConfigurations() {
		res.SavedConfigs = append(res.SavedConfigs, SavedConfig{
			N4: sc.Key.N4, N5: sc.Key.N5, N6: sc.Key.N6,
			LeakageLimited: sc.LeakageLimited, Chips: sc.Chips,
		})
	}
	if study.Estimate != nil {
		ei := toEstimateInfo(study.Estimate)
		res.Estimate = &ei
		res.EarlyStop = study.Estimate.EarlyStop
		if res.EarlyStop {
			j.earlyStop.Store(true)
		}
	}
	return &cacheEntry{val: res}, nil
}

// estimateConfig arms streaming yield estimation for one build: core
// publishes a snapshot at most once per StreamInterval mid-build, then
// the final one, and every snapshot lands on the job
// (GET /v1/jobs/{id}/estimate) and streams as a job_estimate SSE
// event. A request precision target adds early stopping, whose stop
// does not depend on that interval.
func (s *Server) estimateConfig(p params, j *job) *yieldcache.EstimateConfig {
	interval := s.cfg.StreamInterval
	if interval <= 0 {
		interval = time.Nanosecond // unthrottled streaming (tests): a snapshot at every look
	}
	return &yieldcache.EstimateConfig{
		Interval:      interval,
		Confidence:    p.confidence,
		TargetCIWidth: p.targetCI,
		Sink: func(e *yieldcache.YieldEstimate) {
			snap := *e // detach from the estimator's reusable buffer
			j.estimate.Store(&snap)
			j.scope.PublishEstimate(e.Yield, e.CILow, e.CIHigh, int64(e.Chips), int64(e.Total))
		},
	}
}

// toEstimateInfo converts a core estimate snapshot to the wire shape.
func toEstimateInfo(e *yieldcache.YieldEstimate) EstimateInfo {
	out := EstimateInfo{
		Chips:           e.Chips,
		Total:           e.Total,
		Confidence:      e.Confidence,
		Yield:           e.Yield,
		CILow:           e.CILow,
		CIHigh:          e.CIHigh,
		HalfWidth:       e.HalfWidth,
		Lost:            e.Lost,
		MeanLatencyPS:   e.MeanLatencyPS,
		StdErrLatencyPS: e.StdErrLatencyPS,
		MeanLeakageW:    e.MeanLeakageW,
		StdErrLeakageW:  e.StdErrLeakageW,
		Reasons:         make([]ReasonEstimateInfo, 0, len(e.Reasons)),
		EarlyStop:       e.EarlyStop,
	}
	for _, r := range e.Reasons {
		out.Reasons = append(out.Reasons, ReasonEstimateInfo{
			Reason: r.Reason.String(), Lost: r.Lost, Share: r.Share,
			CILow: r.CILow, CIHigh: r.CIHigh,
		})
	}
	return out
}

// regularSchemes maps request scheme names to the regular-organisation
// scheme set (Table 2 columns).
func regularSchemes(names []string) []yieldcache.Scheme {
	out := make([]yieldcache.Scheme, len(names))
	for i, n := range names {
		switch n {
		case "YAPD":
			out[i] = yieldcache.SchemeYAPD()
		case "VACA":
			out[i] = yieldcache.SchemeVACA()
		case "Hybrid":
			out[i] = yieldcache.SchemeHybrid(false)
		}
	}
	return out
}

// horizontalSchemes maps request scheme names to their horizontal
// analogues (Table 3 columns): YAPD becomes H-YAPD and the Hybrid
// powers down horizontal regions.
func horizontalSchemes(names []string) []yieldcache.Scheme {
	out := make([]yieldcache.Scheme, len(names))
	for i, n := range names {
		switch n {
		case "YAPD":
			out[i] = yieldcache.SchemeHYAPD()
		case "VACA":
			out[i] = yieldcache.SchemeVACA()
		case "Hybrid":
			out[i] = yieldcache.SchemeHybrid(true)
		}
	}
	return out
}

// toBreakdown converts a loss breakdown to the wire, intervals at conf.
func toBreakdown(bd yieldcache.LossBreakdown, conf float64) Breakdown {
	out := Breakdown{
		N:         bd.N,
		BaseTotal: bd.BaseTotal,
		Totals:    make(map[string]int, len(bd.Schemes)),
		Yields:    make(map[string]float64, len(bd.Schemes)+1),
		YieldCIs:  make(map[string]yieldcache.Interval, len(bd.Schemes)+1),
	}
	out.Yields["base"] = bd.Yield(-1)
	out.YieldCIs["base"] = bd.YieldCI(-1, conf)
	for i, s := range bd.Schemes {
		out.Totals[s.Scheme] = s.Total
		out.Yields[s.Scheme] = bd.Yield(i)
		out.YieldCIs[s.Scheme] = bd.YieldCI(i, conf)
	}
	for _, r := range yieldcache.AllLossReasons() {
		row := BreakdownRow{
			Reason:    r.String(),
			Base:      bd.Base[r],
			Remaining: make(map[string]int, len(bd.Schemes)),
		}
		for _, s := range bd.Schemes {
			row.Remaining[s.Scheme] = s.ByReason[r]
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func toTotals(rows []yieldcache.ConstraintTotals) []ConstraintTotals {
	out := make([]ConstraintTotals, 0, len(rows))
	for _, r := range rows {
		row := ConstraintTotals{
			Constraint: r.Constraint.Name,
			Base:       r.Base,
			Totals:     make(map[string]int, len(r.Schemes)),
		}
		for _, s := range r.Schemes {
			row.Totals[s.Scheme] = s.Total
		}
		out = append(out, row)
	}
	return out
}

// await blocks the request on the build (leader and coalesced waiters
// alike) or the request's own context, whichever ends first. Every
// outcome — success or failure — carries the job's id in X-Job-Id, so a
// 504 can still be chased down at /v1/jobs/{id}.
func (s *Server) await(w http.ResponseWriter, r *http.Request, c *call, k jobKind) {
	select {
	case <-c.done:
		if c.err != nil {
			w.Header().Set("X-Job-Id", c.job.id)
			class := obs.ClassifyError(c.err)
			switch class {
			case obs.ClassTimeout:
				obs.C("server_" + k.noun() + "_timeouts_total").Inc()
				writeErrorClass(w, http.StatusGatewayTimeout, class, k.noun()+" timed out: "+c.err.Error())
			case obs.ClassCanceled:
				writeErrorClass(w, http.StatusServiceUnavailable, class, k.noun()+" cancelled: server shutting down")
			default:
				writeErrorClass(w, http.StatusInternalServerError, class, c.err.Error())
			}
			return
		}
		writeOK(w, c.job.id)
		writeBody(w, k.view(c.res))
	case <-r.Context().Done():
		// Client gone (or server closing the connection); the build
		// keeps running for coalesced waiters and the cache.
		obs.C("server_requests_abandoned_total").Inc()
		w.Header().Set("X-Job-Id", c.job.id)
		writeErrorClass(w, http.StatusGatewayTimeout, obs.ClassCanceled, "request cancelled")
	}
}

func (s *Server) handleConstraints(w http.ResponseWriter, r *http.Request) {
	var out []ConstraintsInfo
	for _, c := range yieldcache.ConstraintSets() {
		out = append(out, ConstraintsInfo{Name: c.Name, DelaySigmaK: c.DelaySigmaK, LeakageMult: c.LeakageMult})
	}
	writeJSON(w, http.StatusOK, map[string]any{"constraints": out, "schemes": schemeOrder})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, jobs := s.draining, s.jobs
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "jobs": jobs})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "jobs": jobs})
}

// handleMetrics serves GET /metrics: the default registry in the
// Prometheus text format, with the runtime and server gauges read at
// the moment of the scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	obs.G("runtime_goroutines").Set(float64(runtime.NumGoroutine()))
	obs.G("runtime_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	obs.G("runtime_heap_sys_bytes").Set(float64(ms.HeapSys))
	obs.G("runtime_heap_objects").Set(float64(ms.HeapObjects))
	obs.G("runtime_gc_cycles_total").Set(float64(ms.NumGC))
	obs.G("runtime_gc_pause_total_ms").Set(float64(ms.PauseTotalNs) / 1e6)

	busy := len(s.slots)
	s.mu.Lock()
	admitted := s.jobs
	s.mu.Unlock()
	obs.G("server_workers_busy").Set(float64(busy))
	obs.G("server_queue_depth").Set(float64(max(admitted-busy, 0)))
	obs.G("server_jobs_admitted").Set(float64(admitted))
	obs.G("server_build_ewma_seconds").Set(math.Float64frombits(s.buildEWMA.Load()))
	obs.G("server_event_subscribers").Set(float64(s.bus.Subscribers()))
	obs.G("build_chips_per_second").Set(s.jobsReg.chipRate(time.Now()))
	obs.MetricsHandler().ServeHTTP(w, r)
}

// retryAfterSeconds advises a shed client when a worker is likely to
// free up: one smoothed build duration, clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	est := math.Float64frombits(s.buildEWMA.Load())
	sec := int(math.Ceil(est))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// studyView applies per-request presentation — the Cached flag and the
// include_* filters — to a shallow copy, so the shared result itself
// stays immutable.
func studyView(res *StudyResponse, p params, cached bool) *StudyResponse {
	out := *res
	out.Cached = cached
	if !p.scatter {
		out.Scatter = nil
	}
	if !p.saved {
		out.SavedConfigs = nil
	}
	return &out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeBody(w, v)
}

// writeBody encodes v onto w indented, newline-terminated, in one
// Write; encodeJSON yields the same bytes for the hit memo.
func writeBody(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError classifies the failure from its HTTP status; paths that
// know a more precise class call writeErrorClass directly.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeErrorClass(w, code, classForStatus(code), msg)
}

// writeErrorClass sends an ErrorResponse stamped with its taxonomy
// class and counts it on server_requests_total{class=...}.
func writeErrorClass(w http.ResponseWriter, code int, class obs.ErrClass, msg string) {
	obs.C(`server_requests_total{class="` + string(class) + `"}`).Inc()
	writeJSON(w, code, ErrorResponse{Error: msg, Class: string(class)})
}

// classForStatus maps an HTTP status to the error taxonomy: 429 is
// shed, 504 timeout, 503 canceled (draining/shutdown), other 4xx
// validation, the rest internal.
func classForStatus(code int) obs.ErrClass {
	switch {
	case code == http.StatusTooManyRequests:
		return obs.ClassShed
	case code == http.StatusGatewayTimeout:
		return obs.ClassTimeout
	case code == http.StatusServiceUnavailable:
		return obs.ClassCanceled
	case code >= 400 && code < 500:
		return obs.ClassValidation
	default:
		return obs.ClassInternal
	}
}
