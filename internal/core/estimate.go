package core

import (
	"math"
	"sync/atomic"
	"time"

	"yieldcache/internal/stats"
)

// EstimateConfig arms streaming yield estimation on a population
// build: while workers measure chips, the build publishes YieldEstimate
// snapshots — live yield with a Wilson confidence interval,
// per-loss-reason shares with their own intervals, and latency/leakage
// moments — computed over a consistent prefix of the chips measured so
// far. With TargetCIWidth set it also turns the estimate into a
// stopping rule, evaluated in order at every look point (each multiple
// of 64 chips): the build stops at the first look point where the
// yield interval's half-width reaches the target and returns the
// population truncated to that prefix, every chip of which is fully
// measured. The stop prefix is a function of the seed, the population
// size, the target, the confidence and the constraints; it does not
// depend on the workers, the scheduling or Interval. Nil adds nothing
// to the build's hot loop.
type EstimateConfig struct {
	// Interval is the minimum time between mid-build Sink calls; zero
	// or negative defaults to 250ms. It paces only the Sink: the
	// stopping rule runs at every look point whatever its value. The
	// pacing lives here rather than in the Sink because a snapshot is
	// an O(P) pass: a look with no Sink call due computes none unless
	// the stopping rule needs it.
	Interval time.Duration
	// Constraints selects the yield requirement the estimate classifies
	// against. Snapshots derive *provisional* limits from the measured
	// prefix with exactly the DeriveLimits arithmetic, so the final
	// snapshot (prefix = whole population) reproduces the table limits
	// bit for bit.
	Constraints Constraints
	// Confidence is the two-sided confidence level of every interval;
	// zero defaults to 0.95.
	Confidence float64
	// TargetCIWidth, when positive, enables precision-targeted
	// stopping: the build stops at the first look point of at least
	// MinChips chips, short of the full population, where the yield
	// interval's half-width is <= TargetCIWidth. Zero disables
	// stopping; snapshots still stream.
	TargetCIWidth float64
	// MinChips is the floor below which the stopping rule never fires,
	// guarding against lucky early streaks; zero defaults to 128.
	MinChips int
	// Sink receives each snapshot, including a final one published
	// after the build completes (EarlyStop reports whether the
	// precision target cut it short). The pointed-to estimate is a
	// reusable buffer: the Sink must copy what it keeps and must not
	// retain the pointer.
	Sink func(*YieldEstimate)
}

// fill applies the documented defaults in place.
func (c *EstimateConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.95
	}
	if c.MinChips <= 0 {
		c.MinChips = 128
	}
}

// ReasonEstimate is one loss reason's share of the measured prefix
// with its Wilson confidence interval — a live, error-barred row of
// Table 2.
type ReasonEstimate struct {
	Reason LossReason
	Lost   int64   // chips lost to this reason in the prefix
	Share  float64 // Lost / Chips
	CILow  float64
	CIHigh float64
}

// YieldEstimate is one streaming snapshot of a build's statistical
// state: the parametric yield of the first Chips measured chips under
// provisional limits derived from that same prefix, with Wilson
// confidence intervals on the yield and on every loss reason's share,
// plus latency/leakage moments. Snapshots are published into a
// reusable buffer (see EstimateConfig.Sink); all fields are plain
// values so a shallow copy detaches a snapshot from the buffer.
type YieldEstimate struct {
	Chips      int     // measured prefix size the estimate covers
	Total      int     // full requested population size
	Confidence float64 // two-sided confidence level of the intervals

	Yield     float64 // passing fraction of the prefix
	Lost      int64   // chips lost in the prefix
	CILow     float64 // Wilson lower bound on Yield
	CIHigh    float64 // Wilson upper bound on Yield
	HalfWidth float64 // (CIHigh - CILow) / 2, the stopping-rule metric

	// Limits are the provisional pass/fail thresholds derived from the
	// prefix; at Chips == Total they equal DeriveLimits exactly.
	Limits Limits

	MeanLatencyPS   float64
	StdErrLatencyPS float64
	MeanLeakageW    float64
	StdErrLeakageW  float64

	// Reasons holds the per-loss-reason breakdown in table order
	// (LossReasons order: leakage, then delay by way count).
	Reasons [NumLossReasons]ReasonEstimate

	// EarlyStop is set on the final snapshot when the precision target
	// stopped the build before the full population.
	EarlyStop bool
}

// estimator drives streaming yield estimation for one build. It has no
// goroutine: the build's looks run it on the elected worker, and after
// the join Build runs the look points no worker reached. Each snapshot
// is a sequential scan of a consistent
// prefix [0, P) rather than a merge of per-worker floating-point
// partials: per-chip classification needs limits, limits need the
// whole prefix's moments, and a sequential scan in chip order makes
// every published number a pure function of P. The stopping rule runs
// at the look points, multiples of lookStep, in order, so the stop
// prefix is the first look point where it fires, and the estimate
// stays bit-identical across worker counts. Snapshot prefixes only
// grow, so the latency and leakage sums are carried from one snapshot
// to the next and continued in chip order: they cost O(chips since the
// last snapshot) and stay bit-identical to a scan from chip 0; only the
// classification, the tables' verdict pass (verdicts, tables.go) over
// the prefix, is O(P), about 60 µs at P = 5.6k chips on a 2-vCPU Xeon.
// Arming the estimator costs two allocations per build: this struct,
// with the snapshot buffer and the frontier embedded, and the
// frontier's batch marks.
type estimator struct {
	frontier
	cfg  EstimateConfig
	stop atomic.Bool // the stopping rule fired, at look point at: stop sampling
	at   int         // last look point evaluated (looker-only)
	due  time.Time   // no mid-build Sink call before this (looker-only)
	sums prefixSums  // moments of the last snapshot's prefix (looker-only)
	buf  YieldEstimate
	reg  []Chip // the build's regular arena, all N chips
}

// prefixSums are the latency/leakage sums and moments of the chip
// prefix [0, n), carried from one snapshot to the next so each
// snapshot adds only the chips measured since the last one.
type prefixSums struct {
	n              int
	s, ss, leakSum float64
	latM, leakM    stats.Moments
}

// newEstimator returns the estimator of a build of the chips of reg;
// nil when estimation is disabled for this build (no sink and no
// precision target).
func newEstimator(ec *EstimateConfig, reg []Chip) *estimator {
	if ec == nil || (ec.Sink == nil && ec.TargetCIWidth <= 0) {
		return nil
	}
	e := &estimator{cfg: *ec, reg: reg}
	e.done = make([]atomic.Bool, batchCount(len(reg)))
	e.cfg.fill()
	e.due = time.Now().Add(e.cfg.Interval)
	return e
}

// look evaluates the stopping rule at each look point up to the
// consistent prefix p not yet evaluated, in order, and stops the build
// at the first that has at least MinChips chips, falls short of the
// whole population and meets the target. Then, at most once per
// Interval, it hands the Sink the snapshot at the last look point
// evaluated. Nil-safe.
func (e *estimator) look(p int) {
	if e == nil || e.stop.Load() {
		return
	}
	for e.at+lookStep <= p {
		e.at += lookStep
		if e.cfg.TargetCIWidth > 0 && e.at >= e.cfg.MinChips && e.at < len(e.reg) {
			e.snapshot(e.at)
			if e.buf.HalfWidth <= e.cfg.TargetCIWidth {
				e.stop.Store(true)
				break
			}
		}
	}
	if e.cfg.Sink == nil || e.at == 0 {
		return
	}
	if now := time.Now(); !now.Before(e.due) {
		e.due = now.Add(e.cfg.Interval)
		if e.buf.Chips != e.at {
			e.snapshot(e.at)
		}
		e.cfg.Sink(&e.buf)
	}
}

// finish runs after the workers have joined. It evaluates the look
// points no worker reached (every chip is measured unless the rule
// fired), so the stop is the first look point where the rule fires
// whatever the workers saw. Then it publishes the terminal snapshot
// over the chips the build keeps, the stop prefix or all n, and returns
// their count and that snapshot, which is not written again. Nil-safe:
// n and no estimate.
func (e *estimator) finish(n int) (int, *YieldEstimate) {
	if e == nil {
		return n, nil
	}
	if e.cfg.TargetCIWidth > 0 {
		e.look(n)
	}
	early := e.stop.Load()
	if early {
		n = e.at
	}
	e.snapshot(n)
	e.buf.EarlyStop = early
	if e.cfg.Sink != nil {
		e.cfg.Sink(&e.buf)
	}
	return n, &e.buf
}

// snapshot fills the reusable buffer with the estimate over the
// immutable prefix [0, p), where p is at least the last snapshot's
// prefix. Pass 1 continues the carried latency/leakage moments from the
// last snapshot's prefix to p and derives provisional
// limits with exactly the arithmetic of stats.MeanStd + DeriveLimits
// (naive sum / sum-of-squares in chip order), so the p == n snapshot
// reproduces the table limits bit for bit; pass 2 is the tables' own
// verdict pass over the prefix, with no schemes and no buffers, under
// those limits. It allocates nothing.
func (e *estimator) snapshot(p int) {
	ps := &e.sums
	for i := ps.n; i < p; i++ {
		m := &e.reg[i].Meas
		ps.s += m.LatencyPS
		ps.ss += m.LatencyPS * m.LatencyPS
		ps.leakSum += m.LeakageW
		ps.latM.Add(m.LatencyPS)
		ps.leakM.Add(m.LeakageW)
	}
	ps.n = p
	n := float64(p)
	mean := ps.s / n
	v := ps.ss/n - mean*mean
	if v < 0 {
		v = 0
	}
	lim := Limits{
		DelayPS:  mean + e.cfg.Constraints.DelaySigmaK*math.Sqrt(v),
		LeakageW: e.cfg.Constraints.LeakageMult * (ps.leakSum / n),
	}

	chips := verdicts(e.reg[:p], lim, nil, nil, nil)
	pass := stats.Tally{K: int64(chips[LossNone]), N: int64(p)}

	b := &e.buf
	b.Chips = p
	b.Total = len(e.reg)
	b.Confidence = e.cfg.Confidence
	b.Yield = pass.Rate()
	b.Lost = pass.N - pass.K
	ci := yieldInterval(pass.K, pass.N, b.Confidence)
	b.CILow, b.CIHigh, b.HalfWidth = ci.Low, ci.High, ci.HalfWidth()
	b.Limits = lim
	b.MeanLatencyPS = ps.latM.Mean
	b.StdErrLatencyPS = ps.latM.StdErr()
	b.MeanLeakageW = ps.leakM.Mean
	b.StdErrLeakageW = ps.leakM.StdErr()
	b.EarlyStop = false
	for j := range b.Reasons {
		re := &b.Reasons[j]
		re.Reason = LossLeakage + LossReason(j)
		t := stats.Tally{K: int64(chips[re.Reason]), N: int64(p)}
		re.Lost = t.K
		re.Share = t.Rate()
		ci := yieldInterval(t.K, t.N, b.Confidence)
		re.CILow, re.CIHigh = ci.Low, ci.High
	}
}
