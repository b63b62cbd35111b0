package server

import (
	"time"

	"yieldcache"
)

// StudyRequest is the body of POST /v1/study. Zero fields take the
// paper's defaults (seed 2006, 2000 chips, nominal constraints, all
// three schemes). docs/API.md is the authoritative field reference.
type StudyRequest struct {
	// Seed drives all process-variation sampling (default 2006).
	Seed int64 `json:"seed,omitempty"`
	// Chips is the Monte Carlo population size (default 2000, capped by
	// the server's -max-chips).
	Chips int `json:"chips,omitempty"`
	// Constraints names a yield requirement: nominal, relaxed or strict
	// (default nominal). Mutually exclusive with CustomConstraints.
	Constraints string `json:"constraints,omitempty"`
	// CustomConstraints sets the requirement parameters directly.
	CustomConstraints *CustomConstraints `json:"custom_constraints,omitempty"`
	// Schemes selects the yield-aware schemes to evaluate, a subset of
	// YAPD, VACA, Hybrid (default all). On the horizontal organisation
	// the analogues H-YAPD and horizontal Hybrid are substituted.
	Schemes []string `json:"schemes,omitempty"`
	// IncludeScatter adds the Figure 8 per-chip scatter to the response.
	IncludeScatter bool `json:"include_scatter,omitempty"`
	// IncludeSavedConfigs adds the Table 6 row keys (saved way-latency
	// configurations) to the response.
	IncludeSavedConfigs bool `json:"include_saved_configs,omitempty"`
	// TimeoutMS bounds the study build in milliseconds (default and cap
	// set by the server; exceeding the deadline returns 504).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Precision, when present, stops sampling early: the build ends as
	// soon as the streaming yield interval is at least as tight as the
	// requested half-width. The response's estimate block records the
	// decision (early_stop) and the populations are truncated to the
	// measured prefix.
	Precision *PrecisionSpec `json:"precision,omitempty"`
}

// PrecisionSpec is the optional precision target of a study: stop
// sampling once the Wilson interval on the base yield has half-width
// at most TargetCIWidth at the given confidence.
type PrecisionSpec struct {
	// TargetCIWidth is the half-width the yield interval must reach
	// before sampling stops (0 < w < 1). Required.
	TargetCIWidth float64 `json:"target_ci_width"`
	// Confidence is the interval's confidence level (default 0.95).
	Confidence float64 `json:"confidence,omitempty"`
}

// CustomConstraints is a caller-defined yield requirement: the delay
// limit sits DelaySigmaK standard deviations above the population mean
// latency and the leakage limit is LeakageMult times the average.
type CustomConstraints struct {
	DelaySigmaK float64 `json:"delay_sigma_k"`
	LeakageMult float64 `json:"leakage_mult"`
}

// StudyResponse is the body of a successful POST /v1/study.
type StudyResponse struct {
	Seed        int64           `json:"seed"`
	Chips       int             `json:"chips"`
	Constraints ConstraintsInfo `json:"constraints"`
	Limits      LimitsInfo      `json:"limits"`
	// Regular is the Table 2 loss breakdown (regular power-down cache).
	Regular Breakdown `json:"regular"`
	// Horizontal is the Table 3 loss breakdown (horizontal power-down
	// cache, judged against the regular organisation's limits).
	Horizontal Breakdown `json:"horizontal"`
	// RegularTotals and HorizontalTotals are the Table 4/5 rows: total
	// losses under the relaxed and strict constraint sets.
	RegularTotals    []ConstraintTotals `json:"regular_totals"`
	HorizontalTotals []ConstraintTotals `json:"horizontal_totals"`
	// Scatter is the Figure 8 data (include_scatter only).
	Scatter []ScatterPoint `json:"scatter,omitempty"`
	// SavedConfigs are the Table 6 row keys (include_saved_configs only).
	SavedConfigs []SavedConfig `json:"saved_configs,omitempty"`
	// Cached reports whether this result came from the result cache
	// without rebuilding the population.
	Cached bool `json:"cached"`
	// ElapsedMS is the wall time of the build that produced the result
	// (not of this request, when Cached).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Estimate is the build's final streaming yield estimate: the base
	// yield with its confidence interval and per-loss-reason error bars
	// over the chips actually measured.
	Estimate *EstimateInfo `json:"estimate,omitempty"`
	// EarlyStop records the provenance of a precision-targeted build
	// that stopped before measuring the full requested population; the
	// breakdown tables then cover Estimate.Chips chips.
	EarlyStop bool `json:"early_stop,omitempty"`
}

// EstimateInfo is a streaming yield estimate on the wire: the body of
// GET /v1/jobs/{id}/estimate and the estimate block of a study
// response.
type EstimateInfo struct {
	// Chips is how many chips the estimate covers; Total the requested
	// population size. Chips < Total while the build runs, and stays
	// below it when a precision target stopped the build early.
	Chips int `json:"chips"`
	Total int `json:"total"`
	// Confidence is the level of every interval in this estimate.
	Confidence float64 `json:"confidence"`
	// Yield is the estimated base sellable fraction with its Wilson
	// interval [CILow, CIHigh]; HalfWidth is the interval's half-width,
	// the quantity a precision target compares against.
	Yield     float64 `json:"yield"`
	CILow     float64 `json:"ci_low"`
	CIHigh    float64 `json:"ci_high"`
	HalfWidth float64 `json:"half_width"`
	// Lost counts chips failing the provisional limits.
	Lost int64 `json:"lost"`
	// MeanLatencyPS and MeanLeakageW are the population means so far,
	// each with its standard error.
	MeanLatencyPS   float64 `json:"mean_latency_ps"`
	StdErrLatencyPS float64 `json:"stderr_latency_ps"`
	MeanLeakageW    float64 `json:"mean_leakage_w"`
	StdErrLeakageW  float64 `json:"stderr_leakage_w"`
	// Reasons are the per-loss-reason error bars in table order.
	Reasons []ReasonEstimateInfo `json:"reasons"`
	// EarlyStop reports that a precision target ended the build at
	// Chips chips.
	EarlyStop bool `json:"early_stop,omitempty"`
}

// ReasonEstimateInfo is one loss reason's share of the measured chips
// with its confidence interval.
type ReasonEstimateInfo struct {
	Reason string  `json:"reason"`
	Lost   int64   `json:"lost"`
	Share  float64 `json:"share"`
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
}

// JobEstimateResponse is the body of GET /v1/jobs/{id}/estimate: the
// job's most recent streaming yield estimate.
type JobEstimateResponse struct {
	// Job is the job id; State its lifecycle state at read time.
	Job   string `json:"job"`
	State string `json:"state"`
	// Estimate is the latest published snapshot — live while the job
	// runs, final once it is done.
	Estimate EstimateInfo `json:"estimate"`
}

// ConstraintsInfo echoes the resolved yield requirement.
type ConstraintsInfo struct {
	Name        string  `json:"name"`
	DelaySigmaK float64 `json:"delay_sigma_k"`
	LeakageMult float64 `json:"leakage_mult"`
}

// LimitsInfo is the absolute pass/fail thresholds derived from the
// population under the resolved constraints.
type LimitsInfo struct {
	DelayPS  float64 `json:"delay_ps"`
	LeakageW float64 `json:"leakage_w"`
}

// Breakdown is one loss-breakdown table: per-reason base losses and,
// per scheme, the losses that remain.
type Breakdown struct {
	N         int            `json:"n"`
	Rows      []BreakdownRow `json:"rows"`
	BaseTotal int            `json:"base_total"`
	// Totals maps scheme name to its remaining loss count.
	Totals map[string]int `json:"totals"`
	// Yields maps "base" and each scheme name to the sellable fraction.
	Yields map[string]float64 `json:"yields"`
	// YieldCIs maps "base" and each scheme name to the interval on its
	// yield over N chips, at the request's precision.confidence.
	YieldCIs map[string]yieldcache.Interval `json:"yield_cis"`
}

// BreakdownRow is one loss-reason row of a Breakdown.
type BreakdownRow struct {
	Reason    string         `json:"reason"`
	Base      int            `json:"base"`
	Remaining map[string]int `json:"remaining"`
}

// ConstraintTotals is one Table 4/5 row: total losses under one
// constraint set.
type ConstraintTotals struct {
	Constraint string         `json:"constraint"`
	Base       int            `json:"base"`
	Totals     map[string]int `json:"totals"`
}

// ScatterPoint is one chip of the Figure 8 scatter.
type ScatterPoint struct {
	LatencyPS         float64 `json:"latency_ps"`
	NormalizedLeakage float64 `json:"normalized_leakage"`
	Reason            string  `json:"reason"`
}

// SavedConfig is one Table 6 row key: a way-latency configuration and
// how many saved chips exhibit it.
type SavedConfig struct {
	N4             int  `json:"ways_4cyc"`
	N5             int  `json:"ways_5cyc"`
	N6             int  `json:"ways_6cyc"`
	LeakageLimited bool `json:"leakage_limited"`
	Chips          int  `json:"chips"`
}

// JobSummary is one row of GET /v1/jobs: an admitted build's identity,
// lifecycle state and live chip progress.
type JobSummary struct {
	// ID is the job's identifier, also echoed in the X-Job-Id response
	// header of the study that started it and used as the "job" log
	// attribute.
	ID string `json:"id"`
	// Kind is "sweep" for design-space sweeps (POST /v1/sweep); omitted
	// for study builds. Sweep jobs count progress in configs, not chips.
	Kind string `json:"kind,omitempty"`
	// State is queued, running, done or failed.
	State string `json:"state"`
	// Seed, Chips, Constraints and Schemes echo the resolved study
	// parameters.
	Seed        int64    `json:"seed"`
	Chips       int      `json:"chips"`
	Constraints string   `json:"constraints"`
	Schemes     []string `json:"schemes"`
	// CreatedAt is the admission time (UTC).
	CreatedAt time.Time `json:"created_at"`
	// ChipsDone/ChipsTotal is the live Monte Carlo progress: chips
	// measured so far out of the population size. ChipsDone never
	// decreases and reaches ChipsTotal when the build completes.
	ChipsDone  int64 `json:"chips_done"`
	ChipsTotal int64 `json:"chips_total"`
	// Class is the job's terminal error class (ok, validation, timeout,
	// canceled, shed, internal); empty while the job is queued or
	// running.
	Class string `json:"class,omitempty"`
	// Resumed reports that the job survived at least one server restart
	// and was rebuilt from its durable record; Restarts counts how
	// many times. The job id (and X-Job-Id) stays stable across
	// resumes.
	Resumed  bool `json:"resumed,omitempty"`
	Restarts int  `json:"restarts,omitempty"`
	// EarlyStop reports that a precision target stopped the build
	// before the full requested population (ChipsDone < ChipsTotal for
	// a done job).
	EarlyStop bool `json:"early_stop,omitempty"`
}

// JobsResponse is the body of GET /v1/jobs.
type JobsResponse struct {
	// Jobs lists every in-flight job plus the bounded finished history,
	// newest first.
	Jobs []JobSummary `json:"jobs"`
	// HistoryCap is the server's -job-history bound on finished jobs.
	HistoryCap int `json:"history_cap"`
}

// JobDetail is the body of GET /v1/jobs/{id}.
type JobDetail struct {
	JobSummary
	// QueueWaitMS is the time between admission and a worker slot (for
	// a queued job, the wait so far). For a resumed job it accumulates
	// the waits from before each restart too.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// ElapsedMS is the build's run time: so far when running, final
	// when done or failed.
	ElapsedMS float64 `json:"elapsed_ms"`
	// EtaMS estimates the remaining build time from the server's
	// smoothed (EWMA) build duration scaled by the unfinished chip
	// fraction; omitted once the job has finished or when no estimate
	// exists yet.
	EtaMS float64 `json:"eta_ms,omitempty"`
	// CacheHits counts later requests answered from this job's cached
	// result; Coalesced counts concurrent identical requests that
	// shared this build.
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	// Error is the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// TraceURL is the job's Chrome trace_event endpoint.
	TraceURL string `json:"trace_url"`
}

// ErrorResponse is the body of every non-2xx response. Class is the
// low-cardinality error taxonomy label (validation, timeout, canceled,
// shed, internal) also used on the server_requests_total metric and on
// terminal job events.
type ErrorResponse struct {
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
}
