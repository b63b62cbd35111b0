package server

// POST /v1/sweep: design-space exploration as a service. A sweep names
// a grid (technology axes × cache geometries × constraint sets); the
// server plans it through the facade's delta-reuse planner, evaluates
// it on one worker slot with per-config progress events, reduces the
// results to Pareto frontiers, and caches the response under a
// canonical spec hash. A sweep interrupted by a crash is replanned
// from its persisted spec and run again. docs/SWEEPS.md is
// the narrative reference; docs/API.md the field reference.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
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
	// chips it discards. BaseCILow/BaseCIHigh is the interval on
	// BaseYield over the config's population, at a fixed 95%: a sweep
	// request has no confidence field.
	BaseYield  float64 `json:"base_yield"`
	BaseLost   int     `json:"base_lost"`
	BaseCILow  float64 `json:"base_ci_low"`
	BaseCIHigh float64 `json:"base_ci_high"`
	// Yields are the per-scheme outcomes in request scheme order, each
	// with its 95% interval (ci_low, ci_high).
	Yields []yieldcache.SchemeYield `json:"yields"`
	// Economics prices base plus each scheme (present only when the
	// request carried an economics spec).
	Economics []SweepEconomicsResult `json:"economics,omitempty"`
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

// sweepParams is a validated, normalised sweep request: the resolved
// spec and its planned evaluation, the canonical spec bytes behind the
// cache key, and the presentation-only economics.
type sweepParams struct {
	spec      yieldcache.SweepSpec  // resolved (filled) spec
	plan      *yieldcache.SweepPlan // nil for a recovered sweep until it runs
	configs   int                   // len(plan.Configs), known without planning
	schemes   []string              // canonical order, non-empty
	econ      *sweepEconParams
	timeout   time.Duration
	canonical []byte // resolved spec JSON; hashed into key, persisted for resume
	key       string

	specErr error // a recovered record's spec did not decode
}

func (sp *sweepParams) cacheKey() string        { return sp.key }
func (sp *sweepParams) noun() string            { return "sweep" }
func (sp *sweepParams) deadline() time.Duration { return sp.timeout }
func (sp *sweepParams) total() int              { return sp.configs }

// record echoes the sweep's shared knobs in the study fields; the
// constraint name "sweep" flags the job kind in listings that predate
// the kind field, and Spec carries what a resume replans from.
func (sp *sweepParams) record() store.JobRecord {
	return store.JobRecord{
		Seed: sp.spec.Seed, Chips: sp.spec.N, ConsName: "sweep",
		Schemes: sp.schemes, TimeoutMS: sp.timeout.Milliseconds(),
		Spec: sp.canonical,
	}
}

func (sp *sweepParams) view(e *cacheEntry) any {
	return sweepView(e.val.(*SweepResponse), sp.econ, false)
}

func (sp *sweepParams) hitBody(e *cacheEntry) []byte {
	v := hitVariant{}
	if sp.econ != nil {
		v.econ, v.hasEcon = *sp.econ, true
	}
	return e.hitBody(v, func() []byte {
		return encodeJSON(sweepView(e.val.(*SweepResponse), sp.econ, true))
	})
}

// sweepCanonical is the canonical resolved request: the filled spec
// plus the normalised scheme set. Its JSON bytes are hashed into the
// cache key and persisted in the job record for crash resume, so two
// requests that resolve to the same grid share one evaluation.
type sweepCanonical struct {
	Spec    yieldcache.SweepSpec `json:"spec"`
	Schemes []string             `json:"schemes"`
}

// parseSweepRequest validates a SweepRequest against the server limits,
// resolves defaults, and plans the sweep (planning is pure arithmetic,
// bounded by MaxSweepConfigs).
func (s *Server) parseSweepRequest(req *SweepRequest) (sweepParams, error) {
	var sp sweepParams
	var spec yieldcache.SweepSpec
	var err error
	if spec.Seed, spec.N, err = s.resolveSize(req.Seed, req.Chips); err != nil {
		return sp, err
	}

	for _, ax := range req.Axes {
		spec.Axes = append(spec.Axes, yieldcache.TechAxis{Param: ax.Param, Values: ax.Values})
	}
	for i, c := range req.Constraints {
		named, ok := yieldcache.NamedConstraints(c.Name)
		switch {
		case ok && (c.DelaySigmaK != 0 || c.LeakageMult != 0):
			return sp, fmt.Errorf("constraints[%d]: named set %q cannot also carry custom parameters", i, c.Name)
		case ok:
			spec.Constraints = append(spec.Constraints, named)
		case c.DelaySigmaK <= 0 || c.LeakageMult <= 0:
			return sp, fmt.Errorf("constraints[%d]: want a named set (nominal, relaxed, strict) or positive delay_sigma_k and leakage_mult", i)
		default:
			spec.Constraints = append(spec.Constraints, yieldcache.Constraints{
				Name: c.Name, DelaySigmaK: c.DelaySigmaK, LeakageMult: c.LeakageMult})
		}
	}
	for _, g := range req.Geometries {
		spec.Geometries = append(spec.Geometries, yieldcache.CacheGeometry{
			Ways: g.Ways, BanksPerWay: g.BanksPerWay, RowsPerBank: g.RowsPerBank,
			BitsPerRow: g.BitsPerRow, PathsPerBank: g.PathsPerBank})
	}

	if sp.schemes, err = normalizeSchemes(req.Schemes); err != nil {
		return sp, err
	}

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
	sp.spec, sp.plan, sp.configs = plan.Spec, plan, len(plan.Configs)

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

	if sp.timeout, err = s.resolveTimeout(req.TimeoutMS); err != nil {
		return sp, err
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

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	body, ok := readRequest(w, r, &req)
	if !ok {
		return
	}
	sp, err := s.parseSweepRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Salted with the endpoint so a key reused across /v1/study and
	// /v1/sweep with the same bytes still reads as a body conflict.
	s.handle(w, r, &sp, append([]byte("sweep\x00"), body...))
}

// compute runs the planned sweep with per-config events, converts the
// evaluations to the wire shape and reduces them to Pareto frontiers.
// A sweep recovered from its job record is planned here, when it runs;
// every config is a pure function of the spec, so the rerun answers the
// interrupted sweep's bytes.
func (sp *sweepParams) compute(ctx context.Context, s *Server, j *job) (*cacheEntry, error) {
	t0 := time.Now()
	plan := sp.plan
	if plan == nil {
		if sp.specErr != nil {
			return nil, fmt.Errorf("sweep spec unreadable after restart: %w", sp.specErr)
		}
		var err error
		if plan, err = yieldcache.PlanSweep(sp.spec); err != nil {
			return nil, fmt.Errorf("replanning sweep: %w", err)
		}
	}

	evals, err := yieldcache.RunSweep(ctx, plan, yieldcache.SweepOptions{
		Schemes: regularSchemes(sp.schemes),
		OnEval: func(ev yieldcache.SweepEval, done, total int) {
			s.bus.Publish(obs.Event{Type: obs.EventSweepConfig, Job: j.id, Key: ev.Config.Label(),
				Done: int64(done), Total: int64(total)})
		},
	})
	if err != nil {
		return nil, err
	}
	results := make([]SweepConfigResult, len(evals))
	for i, ev := range evals {
		results[i] = toSweepConfigResult(ev)
	}

	elapsed := time.Since(t0).Seconds()
	obs.H("server_sweep_seconds", obs.ExpBuckets(1e-3, 4, 10)).Observe(elapsed)
	foldEWMA(&s.buildEWMA, elapsed)

	return &cacheEntry{val: &SweepResponse{
		Seed:      plan.Spec.Seed,
		Chips:     plan.Spec.N,
		Configs:   len(plan.Configs),
		Schemes:   sp.schemes,
		Stats:     plan.Stats(),
		Results:   results,
		Frontiers: yieldcache.SweepFrontiers(evals),
		ElapsedMS: elapsed * 1e3,
	}}, nil
}

// toSweepConfigResult converts a core evaluation to the wire shape.
func toSweepConfigResult(ev yieldcache.SweepEval) SweepConfigResult {
	g := ev.Config.Geometry
	return SweepConfigResult{
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
		BaseCILow:     ev.BaseCI.Low,
		BaseCIHigh:    ev.BaseCI.High,
		Yields:        ev.Yields,
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
