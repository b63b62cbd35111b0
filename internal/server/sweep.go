package server

// POST /v1/sweep: design-space exploration as a service. A sweep names
// a grid (technology axes × cache geometries × constraint sets); the
// server plans it through the facade's delta-reuse planner, evaluates
// it on one worker slot with per-config progress events and durable
// per-config checkpoints, reduces the results to Pareto frontiers, and
// caches the response under a canonical spec hash. docs/SWEEPS.md is
// the narrative reference; docs/API.md the field reference.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
	"yieldcache/internal/store"
)

// sweepKeyPrefix namespaces sweep cache/store keys away from study
// keys (which always start with a digit).
const sweepKeyPrefix = "sweep/"

// SweepRequest is the body of POST /v1/sweep. Zero fields take the
// paper's defaults: seed 2006, 2000 chips per config, the 16 KB paper
// geometry, nominal constraints, all three schemes, no tech axes (a
// single-point "sweep").
type SweepRequest struct {
	// Seed is the master variation seed shared by every config (common
	// random numbers; default 2006).
	Seed int64 `json:"seed,omitempty"`
	// Chips is the Monte Carlo population size per config (default
	// 2000, capped by -max-chips).
	Chips int `json:"chips,omitempty"`
	// Axes are the swept technology parameters; the config grid is
	// their cross product applied to the 45 nm base technology. Valid
	// params: GET /v1/constraints documents the study knobs; the sweep
	// params are listed in docs/SWEEPS.md (vdd, vt_nominal, alpha, …).
	Axes []SweepAxis `json:"axes,omitempty"`
	// Constraints are the yield-requirement sets evaluated per grid
	// point: named ("nominal", "relaxed", "strict") or custom
	// (delay_sigma_k + leakage_mult, with an optional label).
	Constraints []SweepConstraintSpec `json:"constraints,omitempty"`
	// Geometries are the cache organisations to sweep (ways must stay
	// 1..4; default the paper's 4w×4b×64r×128c).
	Geometries []SweepGeometry `json:"geometries,omitempty"`
	// Schemes selects the yield-aware schemes evaluated per config, a
	// subset of YAPD, VACA, Hybrid (default all).
	Schemes []string `json:"schemes,omitempty"`
	// Economics, when present, prices every config with the generalised
	// Table 6 two-bin model; it shapes the response only and does not
	// affect the cache key.
	Economics *SweepEconomicsSpec `json:"economics,omitempty"`
	// TimeoutMS bounds the whole sweep in milliseconds (default and cap
	// set by the server; exceeding the deadline returns 504).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SweepAxis is one swept technology parameter and its grid values. The
// first value anchors the delta-build base, so listing values nearest
// nominal first keeps deltas small.
type SweepAxis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// SweepConstraintSpec is one constraint set of a sweep: a named preset
// or a custom (delay_sigma_k, leakage_mult) pair.
type SweepConstraintSpec struct {
	Name        string  `json:"name,omitempty"`
	DelaySigmaK float64 `json:"delay_sigma_k,omitempty"`
	LeakageMult float64 `json:"leakage_mult,omitempty"`
}

// SweepGeometry is a cache organisation on the wire.
type SweepGeometry struct {
	Ways         int `json:"ways"`
	BanksPerWay  int `json:"banks_per_way"`
	RowsPerBank  int `json:"rows_per_bank"`
	BitsPerRow   int `json:"bits_per_row"`
	PathsPerBank int `json:"paths_per_bank"`
}

// SweepEconomicsSpec parameterises the per-config binning economics.
// Zero fields take the 45 nm defaults (a $4000 wafer, 600 gross dies,
// 85% functional yield, $60 parts); degraded_cpi_pct defaults to 5 —
// the CPI cost charged to chips a scheme saves.
type SweepEconomicsSpec struct {
	WaferCost       float64 `json:"wafer_cost,omitempty"`
	DiesPerWafer    int     `json:"dies_per_wafer,omitempty"`
	FunctionalYield float64 `json:"functional_yield,omitempty"`
	FullPrice       float64 `json:"full_price,omitempty"`
	PriceSlope      float64 `json:"price_slope,omitempty"`
	MinPriceFrac    float64 `json:"min_price_frac,omitempty"`
	DegradedCPIPct  float64 `json:"degraded_cpi_pct,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Seed int64 `json:"seed"`
	// Chips is the population size per config; Configs the number of
	// evaluated design points.
	Chips   int      `json:"chips"`
	Configs int      `json:"configs"`
	Schemes []string `json:"schemes"`
	// Stats reports the delta-reuse structure of the evaluation: full
	// builds, delta builds, copies and shared evaluations.
	Stats yieldcache.SweepStats `json:"stats"`
	// Results holds every config's evaluation, densely indexed in spec
	// order (geometry-major, then tech grid row-major, then constraints).
	Results []SweepConfigResult `json:"results"`
	// Frontiers maps "Base" and each scheme name to the Pareto-optimal
	// config indices under (yield max, mean latency min, mean leakage
	// min).
	Frontiers map[string][]int `json:"frontiers"`
	// ResumedConfigs counts configs restored from a durable checkpoint
	// rather than evaluated in this process lifetime.
	ResumedConfigs int `json:"resumed_configs,omitempty"`
	// Cached reports whether the response came from the result cache.
	Cached bool `json:"cached"`
	// ElapsedMS is the wall time of the sweep that produced the result.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// SweepConfigResult is one design point's evaluation.
type SweepConfigResult struct {
	Index int `json:"index"`
	// Label is the human-readable config identity ("vdd=1.08 nominal"),
	// also carried on sweep_config events.
	Label string `json:"label"`
	// Point maps swept parameter names to this config's values.
	Point       map[string]float64 `json:"point,omitempty"`
	Geometry    SweepGeometry      `json:"geometry"`
	Constraints ConstraintsInfo    `json:"constraints"`
	// Limits are the absolute thresholds derived from this config's own
	// population, exactly as a standalone study would derive them.
	Limits LimitsInfo `json:"limits"`
	// MeanLatencyPS and MeanLeakageW are population means — the
	// performance and power axes of the Pareto reduction.
	MeanLatencyPS float64 `json:"mean_latency_ps"`
	MeanLeakageW  float64 `json:"mean_leakage_w"`
	// BaseYield is the yield-unaware sellable fraction; BaseLost the
	// chips it discards. BaseCILow/BaseCIHigh is the 95% Wilson
	// interval on BaseYield over the config's population.
	BaseYield  float64 `json:"base_yield"`
	BaseLost   int     `json:"base_lost"`
	BaseCILow  float64 `json:"base_ci_low"`
	BaseCIHigh float64 `json:"base_ci_high"`
	// Yields are the per-scheme outcomes in request scheme order.
	Yields []SweepYield `json:"yields"`
	// Economics prices base plus each scheme (present only when the
	// request carried an economics spec).
	Economics []SweepEconomicsResult `json:"economics,omitempty"`
}

// SweepYield is one scheme's outcome at one config, with the 95%
// Wilson interval on its yield.
type SweepYield struct {
	Scheme string  `json:"scheme"`
	Yield  float64 `json:"yield"`
	Lost   int     `json:"lost"`
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
}

// SweepEconomicsResult prices one scheme at one config under the
// request's cost model.
type SweepEconomicsResult struct {
	Scheme           string  `json:"scheme"`
	SellableFraction float64 `json:"sellable_fraction"`
	DiesPerWafer     float64 `json:"dies_per_wafer"`
	RevenuePerWafer  float64 `json:"revenue_per_wafer"`
	CostPerDie       float64 `json:"cost_per_die"`
}

// sweepEconParams is a resolved, validated economics spec.
type sweepEconParams struct {
	model  yieldcache.CostModel
	cpiPct float64
}

// sweepParams is a validated, normalised sweep request: the planned
// evaluation, the canonical spec bytes behind the cache key, and the
// presentation-only economics.
type sweepParams struct {
	plan      *yieldcache.SweepPlan
	schemes   []string // canonical order, non-empty
	econ      *sweepEconParams
	timeout   time.Duration
	canonical []byte // resolved spec JSON; hashed into key, persisted for resume
	key       string
}

// jobParams renders the sweep's shared knobs as study params so the
// job registry can echo them; the constraint name "sweep" flags the
// job kind in listings that predate the kind field.
func (sp sweepParams) jobParams() params {
	return params{
		seed:    sp.plan.Spec.Seed,
		chips:   sp.plan.Spec.N,
		cons:    yieldcache.Constraints{Name: "sweep"},
		schemes: sp.schemes,
		timeout: sp.timeout,
	}
}

// sweepCanonical is the canonical resolved request: the filled spec
// plus the normalised scheme set. Its JSON bytes are hashed into the
// cache key and persisted in the job record for crash resume, so two
// requests that resolve to the same grid share one evaluation.
type sweepCanonical struct {
	Spec    yieldcache.SweepSpec `json:"spec"`
	Schemes []string             `json:"schemes"`
}

// sweepCheckpoint is the durable config-granular checkpoint of a
// running sweep: every completed config result. JSON round-trips Go
// float64 values exactly, so resumed configs are bit-identical to
// freshly evaluated ones.
type sweepCheckpoint struct {
	Results []SweepConfigResult `json:"results"`
}

// parseSweepRequest validates a SweepRequest against the server limits,
// resolves defaults, and plans the sweep (planning is pure arithmetic,
// bounded by MaxSweepConfigs).
func (s *Server) parseSweepRequest(req *SweepRequest) (sweepParams, error) {
	sp := sweepParams{}
	spec := yieldcache.SweepSpec{Seed: req.Seed, N: req.Chips}
	if spec.Seed == 0 {
		spec.Seed = 2006
	}
	if spec.N == 0 {
		spec.N = 2000
	}
	if spec.N < 0 {
		return sp, fmt.Errorf("chips must be positive, got %d", req.Chips)
	}
	if spec.N > s.cfg.MaxChips {
		return sp, fmt.Errorf("chips %d exceeds the server limit %d", spec.N, s.cfg.MaxChips)
	}

	for _, ax := range req.Axes {
		spec.Axes = append(spec.Axes, yieldcache.TechAxis{Param: ax.Param, Values: ax.Values})
	}
	for i, c := range req.Constraints {
		switch c.Name {
		case "nominal", "relaxed", "strict":
			if c.DelaySigmaK != 0 || c.LeakageMult != 0 {
				return sp, fmt.Errorf("constraints[%d]: named set %q cannot also carry custom parameters", i, c.Name)
			}
			switch c.Name {
			case "nominal":
				spec.Constraints = append(spec.Constraints, yieldcache.Nominal())
			case "relaxed":
				spec.Constraints = append(spec.Constraints, yieldcache.Relaxed())
			case "strict":
				spec.Constraints = append(spec.Constraints, yieldcache.Strict())
			}
		default:
			if c.DelaySigmaK <= 0 || c.LeakageMult <= 0 {
				return sp, fmt.Errorf("constraints[%d]: want a named set (nominal, relaxed, strict) or positive delay_sigma_k and leakage_mult", i)
			}
			spec.Constraints = append(spec.Constraints, yieldcache.Constraints{
				Name: c.Name, DelaySigmaK: c.DelaySigmaK, LeakageMult: c.LeakageMult})
		}
	}
	for _, g := range req.Geometries {
		spec.Geometries = append(spec.Geometries, yieldcache.CacheGeometry{
			Ways: g.Ways, BanksPerWay: g.BanksPerWay, RowsPerBank: g.RowsPerBank,
			BitsPerRow: g.BitsPerRow, PathsPerBank: g.PathsPerBank})
	}

	schemes, err := normalizeSweepSchemes(req.Schemes)
	if err != nil {
		return sp, err
	}
	sp.schemes = schemes

	// Count the grid before planning it: the planner materialises every
	// config, so a small body naming long axes must be refused first.
	if n, ok := sweepConfigCount(spec); !ok {
		return sp, fmt.Errorf("sweep resolves to more than %d configs, exceeding the server limit %d",
			math.MaxInt, s.cfg.MaxSweepConfigs)
	} else if n > s.cfg.MaxSweepConfigs {
		return sp, fmt.Errorf("sweep resolves to %d configs, exceeding the server limit %d",
			n, s.cfg.MaxSweepConfigs)
	}
	plan, err := yieldcache.PlanSweep(spec)
	if err != nil {
		return sp, err
	}
	sp.plan = plan

	if req.Economics != nil {
		e := *req.Economics
		m := yieldcache.DefaultCostModel()
		if e.WaferCost != 0 {
			m.WaferCost = e.WaferCost
		}
		if e.DiesPerWafer != 0 {
			m.DiesPerWafer = e.DiesPerWafer
		}
		if e.FunctionalYield != 0 {
			m.FunctionalYield = e.FunctionalYield
		}
		if e.FullPrice != 0 {
			m.FullPrice = e.FullPrice
		}
		if e.PriceSlope != 0 {
			m.PriceSlope = e.PriceSlope
		}
		if e.MinPriceFrac != 0 {
			m.MinPriceFrac = e.MinPriceFrac
		}
		if err := m.Validate(); err != nil {
			return sp, err
		}
		cpi := e.DegradedCPIPct
		if cpi == 0 {
			cpi = 5
		}
		if cpi < 0 {
			return sp, fmt.Errorf("economics: degraded_cpi_pct must be non-negative, got %g", cpi)
		}
		sp.econ = &sweepEconParams{model: m, cpiPct: cpi}
	}

	if req.TimeoutMS < 0 {
		return sp, fmt.Errorf("timeout_ms must be positive, got %d", req.TimeoutMS)
	}
	sp.timeout = s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		sp.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if sp.timeout > s.cfg.MaxTimeout {
		sp.timeout = s.cfg.MaxTimeout
	}

	// The canonical bytes hash the *resolved* spec — two requests that
	// spell the same grid differently (explicit vs defaulted fields)
	// share one key. Economics and timeout shape the response or the
	// deadline, never the computation, so they stay out.
	canonical, err := json.Marshal(sweepCanonical{Spec: plan.Spec, Schemes: sp.schemes})
	if err != nil {
		return sp, err
	}
	sp.canonical = canonical
	sum := sha256.Sum256(canonical)
	sp.key = sweepKeyPrefix + hex.EncodeToString(sum[:])
	return sp, nil
}

// sweepConfigCount is the number of configs spec resolves to: the
// product of the axis lengths times the constraint sets times the
// geometries, an empty constraint or geometry list counting once. It
// reports false when the product overflows an int.
func sweepConfigCount(spec yieldcache.SweepSpec) (int, bool) {
	n := max(1, len(spec.Constraints))
	factors := []int{max(1, len(spec.Geometries))}
	for _, ax := range spec.Axes {
		factors = append(factors, len(ax.Values))
	}
	for _, f := range factors {
		if f != 0 && n > math.MaxInt/f {
			return 0, false
		}
		n *= f
	}
	return n, true
}

// normalizeSweepSchemes validates a scheme subset and returns it in
// canonical order (empty means all).
func normalizeSweepSchemes(names []string) ([]string, error) {
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

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	sp, err := s.parseSweepRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := sp.key

	idemKey := r.Header.Get("Idempotency-Key")
	if len(idemKey) > maxIdemKeyLen {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("Idempotency-Key longer than %d bytes", maxIdemKeyLen))
		return
	}
	var bodyHash string
	if idemKey != "" {
		// Salted with the endpoint so a key reused across /v1/study and
		// /v1/sweep with the same bytes still reads as a body conflict.
		sum := sha256.Sum256(append([]byte("sweep\x00"), body...))
		bodyHash = hex.EncodeToString(sum[:])
	}

	s.mu.Lock()
	if idemKey != "" && s.sweepIdemLookupLocked(w, r, idemKey, bodyHash, sp) {
		return
	}
	if e := s.cache[key]; e != nil && e.sweep != nil {
		s.mu.Unlock()
		obs.C("server_sweep_cache_hits_total").Inc()
		jobID := ""
		if j, ok := s.jobsReg.lookupKey(key); ok {
			j.cacheHits.Add(1)
			jobID = j.id
		}
		s.bus.Publish(obs.Event{Type: obs.EventCacheHit, Job: jobID, Key: key})
		s.log.Debug("sweep served from cache", "job", jobID, "key", key)
		s.recordIdem(idemKey, bodyHash, key, jobID)
		writeHit(w, e.sweepHitBody(sp.econ), jobID)
		return
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		obs.C("server_sweep_coalesced_total").Inc()
		c.job.coalesced.Add(1)
		s.recordIdem(idemKey, bodyHash, key, c.job.id)
		s.awaitSweep(w, r, c, sp)
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
		obs.C("server_sweep_shed_total").Inc()
		j := s.jobsReg.createFailed(sp.jobParams(), key, obs.ClassShed, "build queue is full")
		s.bus.Publish(obs.Event{Type: obs.EventShed, Job: j.id, Key: key,
			Class: string(obs.ClassShed), Queued: admitted})
		s.log.Warn("sweep shed: build queue full", "job", j.id, "key", key)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		w.Header().Set("X-Job-Id", j.id)
		writeError(w, http.StatusTooManyRequests, "build queue is full")
		return
	}
	c := &call{done: make(chan struct{}), job: s.jobsReg.createSweep(sp.jobParams(), key, sp.canonical, s.log)}
	s.inflight[key] = c
	s.jobs++
	admitted := s.jobs
	obs.G("server_jobs_admitted").Set(float64(s.jobs))
	s.wg.Add(1)
	s.mu.Unlock()
	obs.C("server_sweep_cache_misses_total").Inc()
	configs := len(sp.plan.Configs)
	s.bus.Publish(obs.Event{Type: obs.EventJobAdmitted, Job: c.job.id, Key: key,
		Total: int64(configs)})
	if admitted > s.cfg.Workers {
		s.bus.Publish(obs.Event{Type: obs.EventQueuePressure,
			Queued: admitted - s.cfg.Workers, Running: s.cfg.Workers})
	}
	st := sp.plan.Stats()
	c.job.scope.Log().Info("sweep admitted",
		"seed", sp.plan.Spec.Seed, "chips", sp.plan.Spec.N, "configs", configs,
		"full_builds", st.FullBuilds, "delta_builds", st.DeltaBuilds,
		"schemes", strings.Join(sp.schemes, "+"), "timeout", sp.timeout)
	s.recordIdem(idemKey, bodyHash, key, c.job.id)
	s.persistSweepJob(c.job, sp, jobQueued)

	go s.runSweep(key, sp, c)
	s.awaitSweep(w, r, c, sp)
}

// sweepIdemLookupLocked is idemLookupLocked's sweep twin: resolve a
// recorded Idempotency-Key while s.mu is held, replaying the cached
// sweep or coalescing onto the in-flight one. Returns true when the
// request was fully answered (lock released).
func (s *Server) sweepIdemLookupLocked(w http.ResponseWriter, r *http.Request, idemKey, bodyHash string, sp sweepParams) bool {
	rec, ok := s.idem[idemKey]
	if !ok {
		return false
	}
	if rec.BodyHash != bodyHash {
		s.mu.Unlock()
		obs.C("server_idempotency_conflicts_total").Inc()
		s.log.Warn("idempotency key reused with different body", "job", rec.JobID)
		writeErrorClass(w, http.StatusConflict, obs.ClassValidation,
			"Idempotency-Key was already used with a different request body")
		return true
	}
	if e := s.cache[rec.StudyKey]; e != nil && e.sweep != nil {
		s.mu.Unlock()
		obs.C("server_idempotent_replays_total").Inc()
		if j, found := s.jobsReg.lookupKey(rec.StudyKey); found {
			j.cacheHits.Add(1)
		}
		w.Header().Set("Idempotency-Replayed", "true")
		s.log.Debug("sweep replayed for idempotency key", "job", rec.JobID, "key", rec.StudyKey)
		writeHit(w, e.sweepHitBody(sp.econ), rec.JobID)
		return true
	}
	if c, flying := s.inflight[rec.StudyKey]; flying {
		s.mu.Unlock()
		obs.C("server_sweep_coalesced_total").Inc()
		c.job.coalesced.Add(1)
		s.awaitSweep(w, r, c, sp)
		return true
	}
	delete(s.idem, idemKey)
	go s.storeDo("delete_idem", func() error { return s.store.DeleteIdem(idemKey) })
	return false
}

// runSweep executes one admitted sweep on a single worker slot,
// mirroring run: queue, evaluate under the request timeout, publish to
// the cache and wake every waiter. The sweep's internal cluster
// parallelism never exceeds the configured worker count, so a sweep
// cannot oversubscribe the pool it occupies one slot of.
func (s *Server) runSweep(key string, sp sweepParams, c *call) {
	defer s.wg.Done()
	j := c.job
	ctx, cancel := context.WithTimeout(s.baseCtx, sp.timeout)
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
			QueueWaitMS: wait.Seconds() * 1e3, Total: int64(len(sp.plan.Configs))})
		j.scope.Log().Info("sweep started", "queue_wait_ms", wait.Seconds()*1e3)
		s.persistSweepJob(j, sp, jobRunning)
		c.sweep, c.err = s.computeSweep(ctx, sp, c)
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
		j.scope.Log().Error("sweep failed", "error", c.err.Error(), "class", j.class)
	} else {
		s.bus.Publish(obs.Event{Type: obs.EventJobCompleted, Job: j.id,
			Class: string(obs.ClassOK), Done: done, Total: total, ElapsedMS: c.sweep.ElapsedMS})
		j.scope.Log().Info("sweep done",
			"configs", total, "elapsed_ms", c.sweep.ElapsedMS)
	}

	var evicted, expiredIdem []string
	cached := false
	s.mu.Lock()
	delete(s.inflight, key)
	if c.err == nil {
		cached, evicted, expiredIdem = s.cacheInsertLocked(key, &cacheEntry{sweep: c.sweep})
	}
	s.jobs--
	obs.G("server_jobs_admitted").Set(float64(s.jobs))
	s.mu.Unlock()
	for _, old := range evicted {
		s.bus.Publish(obs.Event{Type: obs.EventCacheEvict, Key: old})
	}
	s.persistSweepOutcome(j, sp, c, key, cached, evicted, expiredIdem)
	close(c.done)
}

// computeSweep runs the planned sweep with per-config events and
// durable config-granular checkpoints, overlays any resumed results,
// and reduces the merged set to Pareto frontiers. Frontiers are always
// computed from the wire-typed results (which round-trip exactly
// through JSON), so a crash-resumed sweep reduces to bit-identical
// frontiers.
func (s *Server) computeSweep(ctx context.Context, sp sweepParams, c *call) (*SweepResponse, error) {
	t0 := time.Now()
	plan := sp.plan
	j := c.job
	results := make([]SweepConfigResult, len(plan.Configs))

	var (
		mu        sync.Mutex
		completed []SweepConfigResult
		lastCkpt  time.Time
	)
	ckptEnabled := s.store != nil && s.cfg.CheckpointInterval > 0
	for _, r := range c.sweepResume {
		completed = append(completed, r)
	}

	par := s.cfg.Workers
	opt := yieldcache.SweepOptions{
		Schemes:  regularSchemes(sp.schemes),
		Parallel: par,
		OnEval: func(ev yieldcache.SweepEval, done, total int) {
			r := toSweepConfigResult(ev)
			mu.Lock()
			results[r.Index] = r
			completed = append(completed, r)
			nDone := len(completed)
			if ckptEnabled && time.Since(lastCkpt) >= s.cfg.CheckpointInterval {
				lastCkpt = time.Now()
				if data, err := json.Marshal(sweepCheckpoint{Results: completed}); err == nil {
					if err := store.Do("put_checkpoint", func() error {
						return s.store.PutCheckpoint(j.id, nDone, data)
					}); err != nil {
						s.log.Warn("sweep checkpoint persist failed",
							"job", j.id, "configs", nDone, "error", err)
					} else {
						s.bus.Publish(obs.Event{Type: obs.EventJobCheckpoint, Job: j.id,
							Done: int64(nDone), Total: int64(total)})
					}
				}
			}
			mu.Unlock()
			s.bus.Publish(obs.Event{Type: obs.EventSweepConfig, Job: j.id, Key: r.Label,
				Done: int64(done), Total: int64(total)})
		},
	}
	if len(c.sweepResume) > 0 {
		opt.Skip = func(i int) bool {
			_, ok := c.sweepResume[i]
			return ok
		}
	}

	evals, err := yieldcache.RunSweep(ctx, plan, opt)
	if err != nil {
		return nil, err
	}
	resumed := 0
	for i := range evals {
		if evals[i].Skipped {
			results[i] = c.sweepResume[i]
			resumed++
		}
	}
	// CIs derive from (lost, n) alone, so recomputing here also fills
	// them on configs resumed from checkpoints written before the CI
	// fields existed.
	for i := range results {
		results[i].fillCIs(plan.Spec.N)
	}

	elapsed := time.Since(t0).Seconds()
	obs.H("server_sweep_seconds", obs.ExpBuckets(1e-3, 4, 10)).Observe(elapsed)
	s.observeBuild(elapsed)

	return &SweepResponse{
		Seed:           plan.Spec.Seed,
		Chips:          plan.Spec.N,
		Configs:        len(plan.Configs),
		Schemes:        sp.schemes,
		Stats:          plan.Stats(),
		Results:        results,
		Frontiers:      sweepWireFrontiers(results, sp.schemes),
		ResumedConfigs: resumed,
		ElapsedMS:      elapsed * 1e3,
	}, nil
}

// toSweepConfigResult converts a core evaluation to the wire shape.
func toSweepConfigResult(ev yieldcache.SweepEval) SweepConfigResult {
	g := ev.Config.Geometry
	r := SweepConfigResult{
		Index: ev.Config.Index,
		Label: ev.Config.Label(),
		Point: ev.Config.Point,
		Geometry: SweepGeometry{
			Ways: g.Ways, BanksPerWay: g.BanksPerWay, RowsPerBank: g.RowsPerBank,
			BitsPerRow: g.BitsPerRow, PathsPerBank: g.PathsPerBank,
		},
		Constraints: ConstraintsInfo{
			Name:        ev.Config.Constraints.Name,
			DelaySigmaK: ev.Config.Constraints.DelaySigmaK,
			LeakageMult: ev.Config.Constraints.LeakageMult,
		},
		Limits:        LimitsInfo{DelayPS: ev.Limits.DelayPS, LeakageW: ev.Limits.LeakageW},
		MeanLatencyPS: ev.MeanLatencyPS,
		MeanLeakageW:  ev.MeanLeakageW,
		BaseYield:     ev.BaseYield,
		BaseLost:      ev.BaseLost,
		Yields:        make([]SweepYield, len(ev.Yields)),
	}
	for i, y := range ev.Yields {
		r.Yields[i] = SweepYield{Scheme: y.Scheme, Yield: y.Yield, Lost: y.Lost}
	}
	return r
}

// fillCIs stamps the config's base and per-scheme yields with their
// post-hoc 95% Wilson intervals over a population of n chips.
func (r *SweepConfigResult) fillCIs(n int) {
	base := wilsonYieldCI(n-r.BaseLost, n)
	r.BaseCILow, r.BaseCIHigh = base.Low, base.High
	for i := range r.Yields {
		ci := wilsonYieldCI(n-r.Yields[i].Lost, n)
		r.Yields[i].CILow, r.Yields[i].CIHigh = ci.Low, ci.High
	}
}

// sweepWireFrontiers reduces wire results to one Pareto frontier per
// scheme (plus "Base"), mirroring the facade's SweepFrontiers but over
// the wire types so cached and resumed responses reduce identically.
func sweepWireFrontiers(results []SweepConfigResult, schemes []string) map[string][]int {
	names := append([]string{"Base"}, schemes...)
	out := make(map[string][]int, len(names))
	pts := make([]yieldcache.ParetoPoint, len(results))
	for ni, name := range names {
		for i, r := range results {
			y := r.BaseYield
			if ni > 0 && ni-1 < len(r.Yields) {
				y = r.Yields[ni-1].Yield
			}
			pts[i] = yieldcache.ParetoPoint{Yield: y, LatencyPS: r.MeanLatencyPS, LeakageW: r.MeanLeakageW}
		}
		out[name] = yieldcache.ParetoFrontier(pts)
	}
	return out
}

// awaitSweep blocks the request on the sweep or the request's own
// context, mirroring await.
func (s *Server) awaitSweep(w http.ResponseWriter, r *http.Request, c *call, sp sweepParams) {
	select {
	case <-c.done:
		if c.err != nil {
			w.Header().Set("X-Job-Id", c.job.id)
			class := obs.ClassifyError(c.err)
			switch class {
			case obs.ClassTimeout:
				obs.C("server_sweep_timeouts_total").Inc()
				writeErrorClass(w, http.StatusGatewayTimeout, class, "sweep timed out: "+c.err.Error())
			case obs.ClassCanceled:
				writeErrorClass(w, http.StatusServiceUnavailable, class, "sweep cancelled: server shutting down")
			default:
				writeErrorClass(w, http.StatusInternalServerError, class, c.err.Error())
			}
			return
		}
		writeOK(w, c.job.id)
		writeBody(w, sweepView(c.sweep, sp.econ, false))
	case <-r.Context().Done():
		obs.C("server_requests_abandoned_total").Inc()
		w.Header().Set("X-Job-Id", c.job.id)
		writeErrorClass(w, http.StatusGatewayTimeout, obs.ClassCanceled, "request cancelled")
	}
}

// sweepView applies per-request presentation: the Cached flag and —
// when the request carried an economics spec — per-config pricing, both
// on copies so the shared result stays immutable. Economics is
// presentation because it is pure arithmetic over the cached yields; it
// never reruns the sweep.
func sweepView(res *SweepResponse, econ *sweepEconParams, cached bool) *SweepResponse {
	out := *res
	out.Cached = cached
	if econ != nil {
		rows := make([]SweepConfigResult, len(res.Results))
		copy(rows, res.Results)
		for i := range rows {
			rows[i].Economics = sweepEconomicsRow(rows[i], econ)
		}
		out.Results = rows
	}
	return &out
}

// sweepEconomicsRow prices one config: base at full price, then each
// scheme with its saved chips in the degraded bin.
func sweepEconomicsRow(r SweepConfigResult, econ *sweepEconParams) []SweepEconomicsResult {
	out := make([]SweepEconomicsResult, 0, len(r.Yields)+1)
	add := func(scheme string, schemeYield, cpiPct float64) {
		res, err := econ.model.FromYields(scheme, r.BaseYield, schemeYield, cpiPct)
		if err != nil {
			return
		}
		out = append(out, SweepEconomicsResult{
			Scheme:           res.Scheme,
			SellableFraction: res.SellableFraction,
			DiesPerWafer:     res.DiesPerWafer,
			RevenuePerWafer:  res.RevenuePerWafer,
			CostPerDie:       res.CostPerDie,
		})
	}
	add("Base", r.BaseYield, 0)
	for _, y := range r.Yields {
		add(y.Scheme, y.Yield, econ.cpiPct)
	}
	return out
}

// persistSweepJob appends the sweep job's lifecycle state to the store,
// carrying the canonical spec so a crashed sweep can be replanned and
// resumed.
func (s *Server) persistSweepJob(j *job, sp sweepParams, state string) {
	if s.store == nil {
		return
	}
	rec := store.JobRecord{
		ID: j.id, Seq: j.seq, Key: j.key, State: state,
		Seed: sp.plan.Spec.Seed, Chips: sp.plan.Spec.N,
		ConsName: "sweep",
		Schemes:  sp.schemes, TimeoutMS: sp.timeout.Milliseconds(),
		Kind: jobKindSweep, Spec: j.spec,
		Restarts:      j.restarts,
		QueueWaitMS:   j.priorWaitMS,
		CreatedUnixMS: j.created.UnixMilli(),
	}
	if state != jobQueued && !j.started.IsZero() {
		rec.QueueWaitMS = j.priorWaitMS + j.started.Sub(j.admitted).Seconds()*1e3
	}
	if state == jobDone || state == jobFailed {
		rec.Class = string(j.class)
		rec.Error = j.errMsg
	}
	s.storeDo("put_job", func() error { return s.store.PutJob(rec) })
}

// persistSweepOutcome records a sweep's terminal state, mirroring
// persistOutcome.
func (s *Server) persistSweepOutcome(j *job, sp sweepParams, c *call, key string, cached bool, evicted, expiredIdem []string) {
	if s.store == nil {
		return
	}
	state := jobDone
	if c.err != nil {
		state = jobFailed
	}
	s.persistSweepJob(j, sp, state)
	if cached {
		if body, err := json.Marshal(c.sweep); err == nil {
			s.storeDo("put_result", func() error { return s.store.PutResult(key, body) })
		}
	}
	for _, old := range evicted {
		old := old
		s.storeDo("delete_result", func() error { return s.store.DeleteResult(old) })
	}
	for _, ik := range expiredIdem {
		ik := ik
		s.storeDo("delete_idem", func() error { return s.store.DeleteIdem(ik) })
	}
	if s.cfg.CheckpointInterval > 0 || len(c.sweepResume) > 0 {
		s.storeDo("delete_checkpoint", func() error { return s.store.DeleteCheckpoint(j.id) })
	}
}

// sweepParamsFromRecord replans a persisted sweep from its canonical
// spec bytes, so a resumed sweep evaluates exactly the grid the crashed
// server admitted.
func (s *Server) sweepParamsFromRecord(rec store.JobRecord) (sweepParams, error) {
	var can sweepCanonical
	if err := json.Unmarshal(rec.Spec, &can); err != nil {
		return sweepParams{}, fmt.Errorf("decoding canonical sweep spec: %w", err)
	}
	plan, err := yieldcache.PlanSweep(can.Spec)
	if err != nil {
		return sweepParams{}, fmt.Errorf("replanning sweep: %w", err)
	}
	sp := sweepParams{
		plan:      plan,
		schemes:   can.Schemes,
		timeout:   time.Duration(rec.TimeoutMS) * time.Millisecond,
		canonical: rec.Spec,
		key:       rec.Key,
	}
	if len(sp.schemes) == 0 {
		sp.schemes = schemeOrder
	}
	if sp.timeout <= 0 {
		sp.timeout = s.cfg.DefaultTimeout
	}
	return sp, nil
}

// resumeSweepJob re-admits one interrupted sweep under its original id,
// loading its config-granular checkpoint so already-evaluated configs
// are overlaid rather than rebuilt. An unreadable spec fails the job
// terminally (there is nothing to re-run); an unreadable checkpoint
// just falls back to a full re-evaluation.
func (s *Server) resumeSweepJob(jr store.JobRecord) {
	sp, err := s.sweepParamsFromRecord(jr)
	if err != nil {
		s.log.Warn("sweep spec unreadable; job failed", "job", jr.ID, "error", err)
		jr.State = jobFailed
		jr.Class = string(obs.ClassInternal)
		jr.Error = "sweep spec unreadable after restart: " + err.Error()
		s.jobsReg.restoreFinished(jr, s.log)
		s.storeDo("put_job", func() error { return s.store.PutJob(jr) })
		return
	}
	resume := make(map[int]SweepConfigResult)
	if data, _, err := s.store.Checkpoint(jr.ID); err == nil {
		var ck sweepCheckpoint
		if derr := json.Unmarshal(data, &ck); derr != nil {
			s.log.Warn("sweep checkpoint unreadable; resuming from scratch", "job", jr.ID, "error", derr)
		} else {
			for _, r := range ck.Results {
				if r.Index >= 0 && r.Index < len(sp.plan.Configs) {
					resume[r.Index] = r
				}
			}
		}
	}

	j := s.jobsReg.restoreResumed(jr, s.log)
	c := &call{done: make(chan struct{}), job: j, sweepResume: resume}
	s.mu.Lock()
	s.inflight[jr.Key] = c
	s.jobs++
	admitted := s.jobs
	s.mu.Unlock()
	obs.G("server_jobs_admitted").Set(float64(admitted))
	obs.C("server_jobs_resumed_total").Inc()
	s.wg.Add(1)
	s.bus.Publish(obs.Event{Type: obs.EventJobResumed, Job: j.id, Key: jr.Key,
		Done: int64(len(resume)), Total: int64(len(sp.plan.Configs)), Restarts: j.restarts})
	j.scope.Log().Info("sweep resumed from store",
		"restarts", j.restarts, "checkpoint_configs", len(resume),
		"configs", len(sp.plan.Configs))
	s.persistSweepJob(j, sp, jobQueued)
	go s.runSweep(jr.Key, sp, c)
}
