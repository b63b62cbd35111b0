package core

import (
	"math"
	"sync/atomic"
	"time"

	"yieldcache/internal/stats"
)

// EstimateConfig arms streaming yield estimation on a population
// build: while workers measure chips, the build periodically publishes
// a YieldEstimate snapshot — live yield with a Wilson confidence
// interval, per-loss-reason shares with their own intervals, and
// latency/leakage moments — computed over the consistent prefix of
// chips measured so far. With TargetCIWidth set it also turns the
// estimate into a stopping rule: once the yield interval's half-width
// reaches the target, the build stops sampling at the next batch
// boundary and returns the population truncated to the prefix the
// decision was made on — a consistent prefix: every chip below it is
// fully measured. Nil adds nothing to the build's hot loop.
type EstimateConfig struct {
	// Interval is the minimum time between snapshots; zero or negative
	// defaults to 250ms.
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
	// stopping: the build stops early once the yield interval's
	// half-width is <= TargetCIWidth (and at least MinChips are
	// measured). Zero disables stopping; snapshots still stream.
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

// estimator drives streaming yield estimation for one build. Like the
// checkpointer it has no goroutine: its look on the build's frontier
// elects the worker that computes and publishes each snapshot. The
// snapshot is a sequential scan of the consistent prefix [0, P) rather
// than a merge of per-worker floating-point partials: per-chip
// classification needs limits, limits need the whole prefix's moments,
// and a sequential scan in chip order makes every published number a
// pure function of P. That is what keeps estimates bit-identical across
// worker counts (the state the workers share is the frontier's batch
// marks, from which P follows exactly). The latency and leakage sums
// are carried from one snapshot to the next and continued in chip
// order, so they cost O(chips since the last snapshot) and stay
// bit-identical to a scan from chip 0; only the classification pass is
// O(P). A snapshot runs at most once per Interval (1 ms in yieldd's
// precision builds) and measured about 60 µs at P = 5.6k chips on a
// 2-vCPU Xeon, against about 105 µs when it re-summed the prefix.
// Arming the estimator costs one allocation per build (this struct,
// with the snapshot buffer embedded) besides the frontier's batch
// marks, which it shares with the checkpointer.
type estimator struct {
	look
	cfg    EstimateConfig
	stop   atomic.Bool  // precision target met: stop sampling
	stopAt atomic.Int64 // decision prefix at the moment stop was set
	last   int          // prefix of the last published snapshot (publisher-only)
	sums   prefixSums   // moments of the last snapshot's prefix (publisher-only)
	buf    YieldEstimate
	reg    []Chip // the build's regular arena, all N chips
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
	e.cfg.fill()
	e.arm(e.cfg.Interval, e)
	return e
}

// stopPrefix returns the prefix at which the stopping rule fired — a
// consistent prefix: every chip below it is fully measured — or 0 when
// the build ran to completion. Nil-safe.
func (e *estimator) stopPrefix() int {
	if e == nil {
		return 0
	}
	return int(e.stopAt.Load())
}

// publish computes a snapshot over the consistent prefix p and hands
// it to the Sink, then evaluates the stopping rule.
func (e *estimator) publish(p int) {
	if p <= e.last || p == 0 {
		return
	}
	e.snapshot(p)
	e.last = p
	if e.cfg.Sink != nil {
		e.cfg.Sink(&e.buf)
	}
	if e.cfg.TargetCIWidth > 0 && p >= e.cfg.MinChips && p < len(e.reg) &&
		e.buf.HalfWidth <= e.cfg.TargetCIWidth {
		e.stopAt.Store(int64(p))
		e.stop.Store(true)
	}
}

// finalize publishes the terminal snapshot over the finished
// population (truncated to the decision prefix when the stopping
// rule fired). It runs after the workers have joined, so there is no
// election to take. Nil-safe.
func (e *estimator) finalize(p int, early bool) {
	if e == nil || p == 0 {
		return
	}
	e.snapshot(p)
	e.buf.EarlyStop = early
	if e.cfg.Sink != nil {
		e.cfg.Sink(&e.buf)
	}
}

// final returns the last snapshot, for Build to hand the caller as the
// end-of-build estimate. The buffer is not written after finalize, so
// the caller may keep it. Nil-safe (nil when estimation is disabled or
// nothing was measured).
func (e *estimator) final() *YieldEstimate {
	if e == nil || e.buf.Chips == 0 {
		return nil
	}
	return &e.buf
}

// snapshot fills the reusable buffer with the estimate over the
// immutable prefix [0, p). Pass 1 continues the carried latency/leakage
// moments from the last snapshot's prefix to p and derives provisional
// limits with exactly the arithmetic of stats.MeanStd + DeriveLimits
// (naive sum / sum-of-squares in chip order), so the p == n snapshot
// reproduces the table limits bit for bit; pass 2 classifies each chip
// under those limits. It allocates nothing.
func (e *estimator) snapshot(p int) {
	ps := &e.sums
	if p < ps.n {
		// A publish after the stop moved past the stop prefix that
		// finalize asks for: sum again from chip 0.
		*ps = prefixSums{}
	}
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

	var pass stats.Tally
	var lost [NumLossReasons]int64
	for i := 0; i < p; i++ {
		r := Classify(e.reg[i].Meas, lim)
		pass.Add(r == LossNone)
		if r != LossNone {
			lost[int(r-LossLeakage)]++
		}
	}

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
		t := stats.Tally{K: lost[j], N: int64(p)}
		re := &b.Reasons[j]
		re.Reason = LossLeakage + LossReason(j)
		re.Lost = t.K
		re.Share = t.Rate()
		ci := yieldInterval(t.K, t.N, b.Confidence)
		re.CILow, re.CIHigh = ci.Low, ci.High
	}
}
