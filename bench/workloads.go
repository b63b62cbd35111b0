package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"time"

	"yieldcache"
	"yieldcache/bench/stat"
	"yieldcache/internal/server"
	"yieldcache/internal/store"
)

// workload is one traffic mix. Each step sends one request per client,
// concurrently, and waits for all of them (a closed loop).
type workload interface {
	name() string
	clients() int
	durable() bool
	// warm issues the set-up requests on a fresh server.
	warm(h *harness) error
	send(h *harness, step, client int) reply
	// check validates one step's successful replies; it returns one
	// error (or nil) per reply.
	check(step int, rs []reply) []error
	// replay runs the traced step's inputs through the layers.
	replay(ctx context.Context, r *runner, step, reqSpan int, rs []reply) error
	// finish runs the output checks that need the whole run and adds the
	// workload's own metrics.
	finish(ctx context.Context, r *runner) error
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"study-fresh", "study-hot", "sweep-grid", "study-durable"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "study-fresh":
		return &freshWorkload{seed: seed}, nil
	case "study-hot":
		return &hotWorkload{seed: seed}, nil
	case "sweep-grid":
		return &sweepWorkload{seed: seed}, nil
	case "study-durable":
		return &durableWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// deriveSeed maps (run seed, stream, index) to a positive study seed,
// so every workload's inputs follow from the run seed alone and no two
// streams share a key.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64()>>2) + 1
}

// digestSteps is how many leading steps the output digest covers.
const digestSteps = 16

// goldenDigests are the output digests of seed 1. A different digest on
// seed 1 means the service now answers the same requests differently.
var goldenDigests = map[string]string{
	"study-fresh": "d94fa62626f15ca081043ad06fa940df49cba8e49ed03adc1a12f67c70c30c7a",
	"sweep-grid":  "3d4778536c18aa5244067620033610eef0687ef6ad9c49d821ef707521b472c7",
}

// checkDigest compares a seed-1 digest with its golden value.
func checkDigest(r *runner, workload string, bodies [][]byte) error {
	d, err := digest(bodies)
	if err != nil {
		return err
	}
	r.res.Digest = d
	if want := goldenDigests[workload]; r.opts.seed == 1 && want != "" && d != want {
		return fmt.Errorf("output digest %s, want %s for seed 1", d, want)
	}
	return nil
}

// decodeStudy decodes a study response and checks the invariants every
// table must satisfy for a population of n chips.
func decodeStudy(body []byte, n int) (*server.StudyResponse, error) {
	var res server.StudyResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decoding study response: %w", err)
	}
	if n == 0 && res.Estimate != nil {
		n = res.Estimate.Chips
	}
	for _, bd := range []struct {
		name string
		b    server.Breakdown
	}{{"regular", res.Regular}, {"horizontal", res.Horizontal}} {
		if bd.b.N != n {
			return nil, fmt.Errorf("%s table covers %d chips, want %d", bd.name, bd.b.N, n)
		}
		base := 0
		remaining := map[string]int{}
		for _, row := range bd.b.Rows {
			base += row.Base
			for s, v := range row.Remaining {
				remaining[s] += v
			}
		}
		if base != bd.b.BaseTotal {
			return nil, fmt.Errorf("%s rows sum to %d base losses, total says %d", bd.name, base, bd.b.BaseTotal)
		}
		if len(bd.b.Totals) != 3 {
			return nil, fmt.Errorf("%s table has %d schemes, want 3", bd.name, len(bd.b.Totals))
		}
		for s, tot := range bd.b.Totals {
			if remaining[s] != tot || tot > bd.b.BaseTotal {
				return nil, fmt.Errorf("%s %s: rows sum to %d, total %d, base %d", bd.name, s, remaining[s], tot, bd.b.BaseTotal)
			}
		}
	}
	if len(res.RegularTotals) != 2 || len(res.HorizontalTotals) != 2 {
		return nil, errors.New("want relaxed and strict constraint totals")
	}
	return &res, nil
}

// compareStudy checks a study response against the same study built in
// process through the facade: limits bit for bit and every loss count.
func compareStudy(res *server.StudyResponse, st *yieldcache.Study) error {
	if res.Limits.DelayPS != st.Limits.DelayPS || res.Limits.LeakageW != st.Limits.LeakageW {
		return fmt.Errorf("limits %v/%v, reference %v/%v", res.Limits.DelayPS, res.Limits.LeakageW,
			st.Limits.DelayPS, st.Limits.LeakageW)
	}
	for _, c := range []struct {
		name string
		got  server.Breakdown
		want yieldcache.LossBreakdown
	}{{"regular", res.Regular, st.Breakdown(regularSchemes...)}, {"horizontal", res.Horizontal, st.BreakdownHorizontal(horizontalSchemes...)}} {
		if c.got.N != c.want.N || c.got.BaseTotal != c.want.BaseTotal {
			return fmt.Errorf("%s: n %d base %d, reference n %d base %d", c.name, c.got.N, c.got.BaseTotal, c.want.N, c.want.BaseTotal)
		}
		for _, s := range c.want.Schemes {
			if c.got.Totals[s.Scheme] != s.Total {
				return fmt.Errorf("%s %s: %d losses, reference %d", c.name, s.Scheme, c.got.Totals[s.Scheme], s.Total)
			}
		}
	}
	for i, row := range st.Totals(extraConstraints, regularSchemes...) {
		got := res.RegularTotals[i]
		if got.Constraint != row.Constraint.Name || got.Base != row.Base {
			return fmt.Errorf("%s totals: base %d, reference %d", row.Constraint.Name, got.Base, row.Base)
		}
	}
	return nil
}

// checkGolden posts the paper's seed-2006 study at 200 chips and checks
// the values internal/core's golden test pins.
func checkGolden(h *harness) error {
	rp := h.post("/v1/study", server.StudyRequest{Seed: 2006, Chips: 200}, "")
	if !rp.ok() {
		return fmt.Errorf("golden study: %s", rp.failure())
	}
	res, err := decodeStudy(rp.body, 200)
	if err != nil {
		return fmt.Errorf("golden study: %w", err)
	}
	const delay, leak = 0x1.e5ca3362b807ap+09, 0x1.6a9381c2291b8p-03
	if res.Limits.DelayPS != delay || res.Limits.LeakageW != leak {
		return fmt.Errorf("golden limits %x/%x, want %x/%x", res.Limits.DelayPS, res.Limits.LeakageW, delay, leak)
	}
	t := res.Regular.Totals
	if res.Regular.BaseTotal != 35 || t["YAPD"] != 13 || t["VACA"] != 14 || t["Hybrid"] != 3 {
		return fmt.Errorf("golden totals base/YAPD/VACA/Hybrid = %d/%d/%d/%d, want 35/13/14/3",
			res.Regular.BaseTotal, t["YAPD"], t["VACA"], t["Hybrid"])
	}
	return nil
}

// freshWorkload: two clients walk the same sequence of never-seen
// 2000-chip studies, so each key is built once and its second request
// coalesces onto the build.
type freshWorkload struct {
	seed    int64
	digests [][]byte
}

const freshChips = 2000

func (w *freshWorkload) name() string  { return "study-fresh" }
func (w *freshWorkload) clients() int  { return 2 }
func (w *freshWorkload) durable() bool { return false }

func (w *freshWorkload) warm(h *harness) error {
	rp := h.post("/v1/study", server.StudyRequest{Seed: deriveSeed(w.seed, "fresh-warm", 0), Chips: freshChips}, "")
	if !rp.ok() {
		return errors.New(rp.failure())
	}
	return nil
}

func (w *freshWorkload) send(h *harness, step, client int) reply {
	return h.post("/v1/study", server.StudyRequest{Seed: deriveSeed(w.seed, "fresh", step), Chips: freshChips}, "")
}

func (w *freshWorkload) check(step int, rs []reply) []error {
	errs := make([]error, len(rs))
	for i, rp := range rs {
		if _, err := decodeStudy(rp.body, freshChips); err != nil {
			errs[i] = err
		}
	}
	if same, err := sameResult(rs[0].body, rs[1].body); err == nil && !same {
		err := errors.New("the two requests for one key got different results")
		return []error{err, err}
	}
	if step < digestSteps {
		w.digests = append(w.digests, rs[0].body)
	}
	return errs
}

func (w *freshWorkload) replay(ctx context.Context, r *runner, step, reqSpan int, rs []reply) error {
	seed := deriveSeed(w.seed, "fresh", step)
	if err := replayStudy(ctx, r.tr, reqSpan, step, seed, freshChips, 0, true); err != nil {
		return err
	}
	if err := replayEncode(r.tr, reqSpan, step, rs[0].body, new(server.StudyResponse)); err != nil {
		return err
	}
	replayChips(r.tr, reqSpan, step, yieldcache.DefaultTech(), seed, freshChips)
	if err := replayBuildNoEstimate(ctx, r.tr, reqSpan, step, seed, freshChips); err != nil {
		return err
	}
	return r.queueWait(rs[0])
}

func (w *freshWorkload) finish(ctx context.Context, r *runner) error {
	r.chips = float64(r.steps * freshChips)
	r.counterFrac("server.coalesced_frac", "server_study_coalesced_total")
	r.counterFrac("server.hit_frac", "server_study_cache_hits_total")
	if err := checkDigest(r, w.name(), w.digests); err != nil {
		return err
	}
	res, err := decodeStudy(r.first[0].body, freshChips)
	if err != nil {
		return err
	}
	st, err := yieldcache.NewStudyCtx(ctx, yieldcache.StudyConfig{Chips: freshChips, Seed: deriveSeed(w.seed, "fresh", 0)})
	if err != nil {
		return err
	}
	return compareStudy(res, st)
}

// hotWorkload: two clients cycle over eight keys that set-up built, each
// step on two different keys, so every request is a cache hit carrying
// the scatter and saved configs. Two clients keep both CPUs busy, as the
// calibration does; one client left the normalised metrics spreading
// about three times as much between runs (README.md).
type hotWorkload struct {
	seed     int64
	warmed   [][]byte // set-up responses per key
	firstHit [][]byte // first hit per key
	replayed map[int]bool
}

const (
	hotKeys    = 8
	hotClients = 2
)

// hotKey is the key a client requests at a step.
func hotKey(step, client int) int { return (step*hotClients + client) % hotKeys }

func (w *hotWorkload) name() string  { return "study-hot" }
func (w *hotWorkload) clients() int  { return hotClients }
func (w *hotWorkload) durable() bool { return false }

func (w *hotWorkload) request(key int) server.StudyRequest {
	return server.StudyRequest{Seed: deriveSeed(w.seed, "hot", key), Chips: freshChips,
		IncludeScatter: true, IncludeSavedConfigs: true}
}

func (w *hotWorkload) warm(h *harness) error {
	w.warmed = make([][]byte, hotKeys)
	w.firstHit = make([][]byte, hotKeys)
	for k := range w.warmed {
		rp := h.post("/v1/study", w.request(k), "")
		if !rp.ok() {
			return errors.New(rp.failure())
		}
		w.warmed[k] = rp.body
	}
	return nil
}

func (w *hotWorkload) send(h *harness, step, client int) reply {
	return h.post("/v1/study", w.request(hotKey(step, client)), "")
}

func (w *hotWorkload) check(step int, rs []reply) []error {
	errs := make([]error, len(rs))
	for c, rp := range rs {
		errs[c] = w.checkHit(hotKey(step, c), rp.body)
	}
	return errs
}

// checkHit checks one hit on key k: the first must carry the set-up
// build's result with its scatter and saved configs, and every later one
// must be byte-identical to the first.
func (w *hotWorkload) checkHit(k int, body []byte) error {
	if w.firstHit[k] != nil {
		if string(body) != string(w.firstHit[k]) {
			return fmt.Errorf("key %d: hit differs from the first hit", k)
		}
		return nil
	}
	w.firstHit[k] = body
	res, err := decodeStudy(body, freshChips)
	if err != nil {
		return err
	}
	if !res.Cached || len(res.Scatter) != freshChips || len(res.SavedConfigs) == 0 {
		return fmt.Errorf("key %d: cached %v, %d scatter points, %d saved configs",
			k, res.Cached, len(res.Scatter), len(res.SavedConfigs))
	}
	same, err := sameResult(w.warmed[k], body)
	if err == nil && !same {
		err = fmt.Errorf("key %d: the first hit differs from the build's response", k)
	}
	return err
}

func (w *hotWorkload) replay(ctx context.Context, r *runner, step, reqSpan int, rs []reply) error {
	if err := replayEncode(r.tr, reqSpan, step, rs[0].body, new(server.StudyResponse)); err != nil {
		return err
	}
	// The build layers are off this workload's path; replay them once
	// per key so their costs on the same inputs are on record.
	k := hotKey(step, 0)
	if w.replayed == nil {
		w.replayed = map[int]bool{}
	}
	if w.replayed[k] {
		return nil
	}
	w.replayed[k] = true
	seed := deriveSeed(w.seed, "hot", k)
	replayChips(r.tr, reqSpan, step, yieldcache.DefaultTech(), seed, freshChips)
	return replayStudy(ctx, r.tr, reqSpan, step, seed, freshChips, 0, false)
}

func (w *hotWorkload) finish(ctx context.Context, r *runner) error {
	r.counterFrac("server.hit_frac", "server_study_cache_hits_total")
	res, err := decodeStudy(w.warmed[0], freshChips)
	if err != nil {
		return err
	}
	st, err := yieldcache.NewStudyCtx(ctx, yieldcache.StudyConfig{Chips: freshChips, Seed: deriveSeed(w.seed, "hot", 0)})
	if err != nil {
		return err
	}
	return compareStudy(res, st)
}

// sweepWorkload: one client requests the tech-node-scan grid (vdd ×
// vt_nominal, twelve configs) at 500 chips with a fresh seed each time
// and two-bin economics.
type sweepWorkload struct {
	seed    int64
	digests [][]byte
}

const sweepChips = 500

func (w *sweepWorkload) name() string  { return "sweep-grid" }
func (w *sweepWorkload) clients() int  { return 1 }
func (w *sweepWorkload) durable() bool { return false }

// The grid of scenarios/tech-node-scan.json.
var sweepAxes = []server.SweepAxis{
	{Param: "vdd", Values: []float64{1.10, 1.08, 1.05, 1.02}},
	{Param: "vt_nominal", Values: []float64{0.30, 0.32, 0.28}},
}

func sweepRequest(seed int64) server.SweepRequest {
	return server.SweepRequest{Seed: seed, Chips: sweepChips, Axes: sweepAxes,
		Economics: &server.SweepEconomicsSpec{}}
}

// sweepSpec is the facade spec the server resolves sweepRequest to.
func sweepSpec(seed int64) yieldcache.SweepSpec {
	spec := yieldcache.SweepSpec{Seed: seed, N: sweepChips}
	for _, ax := range sweepAxes {
		spec.Axes = append(spec.Axes, yieldcache.TechAxis{Param: ax.Param, Values: ax.Values})
	}
	return spec
}

func (w *sweepWorkload) warm(h *harness) error {
	rp := h.post("/v1/sweep", sweepRequest(deriveSeed(w.seed, "sweep-warm", 0)), "")
	if !rp.ok() {
		return errors.New(rp.failure())
	}
	return nil
}

func (w *sweepWorkload) send(h *harness, step, client int) reply {
	return h.post("/v1/sweep", sweepRequest(deriveSeed(w.seed, "sweep", step)), "")
}

// decodeSweep decodes a sweep response and checks its shape.
func decodeSweep(body []byte) (*server.SweepResponse, error) {
	var res server.SweepResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decoding sweep response: %w", err)
	}
	if res.Configs != 12 || len(res.Results) != 12 || res.Stats.FullBuilds != 1 || res.Stats.DeltaBuilds != 11 {
		return nil, fmt.Errorf("sweep of %d configs (%d results, %d full and %d delta builds), want 12 (1 and 11)",
			res.Configs, len(res.Results), res.Stats.FullBuilds, res.Stats.DeltaBuilds)
	}
	for _, name := range []string{"Base", "YAPD", "VACA", "Hybrid"} {
		if len(res.Frontiers[name]) == 0 {
			return nil, fmt.Errorf("empty %s frontier", name)
		}
	}
	for _, c := range res.Results {
		if len(c.Yields) != 3 || len(c.Economics) != 4 {
			return nil, fmt.Errorf("config %d: %d yields and %d priced bins, want 3 and 4", c.Index, len(c.Yields), len(c.Economics))
		}
		if c.BaseYield != 1-float64(c.BaseLost)/sweepChips {
			return nil, fmt.Errorf("config %d: base yield %v for %d losses", c.Index, c.BaseYield, c.BaseLost)
		}
		for _, y := range c.Yields {
			if y.Lost > c.BaseLost {
				return nil, fmt.Errorf("config %d: %s loses %d chips, more than base %d", c.Index, y.Scheme, y.Lost, c.BaseLost)
			}
		}
	}
	return &res, nil
}

func (w *sweepWorkload) check(step int, rs []reply) []error {
	if step < digestSteps {
		w.digests = append(w.digests, rs[0].body)
	}
	_, err := decodeSweep(rs[0].body)
	return []error{err}
}

func (w *sweepWorkload) replay(ctx context.Context, r *runner, step, reqSpan int, rs []reply) error {
	spec := sweepSpec(deriveSeed(w.seed, "sweep", step))
	plan, evals, err := replaySweep(ctx, r.tr, reqSpan, step, spec)
	if err != nil {
		return err
	}
	var res server.SweepResponse
	if err := replayEncode(r.tr, reqSpan, step, rs[0].body, &res); err != nil {
		return err
	}
	// The replay copies the engine's per-config evaluation; a copy that
	// drifted from it would time other work than the server's.
	for i, ev := range evals {
		got := res.Results[i]
		if got.Limits.DelayPS != ev.Limits.DelayPS || got.BaseLost != ev.BaseLost || got.MeanLatencyPS != ev.MeanLatencyPS {
			return fmt.Errorf("config %d: the replayed sweep evaluation differs from the response", i)
		}
	}
	replayChips(r.tr, reqSpan, step, plan.Clusters[0].Base, spec.Seed, sweepChips)
	return r.queueWait(rs[0])
}

func (w *sweepWorkload) finish(ctx context.Context, r *runner) error {
	r.chips = float64(r.steps * 12 * sweepChips)
	if err := checkDigest(r, w.name(), w.digests); err != nil {
		return err
	}
	res, err := decodeSweep(r.first[0].body)
	if err != nil {
		return err
	}
	ref, err := yieldcache.RunSweepCtx(ctx, sweepSpec(deriveSeed(w.seed, "sweep", 0)), yieldcache.SweepOptions{})
	if err != nil {
		return err
	}
	econ, err := yieldcache.SweepEconomics(ref.Evals, yieldcache.DefaultCostModel(), 5)
	if err != nil {
		return err
	}
	for i, ev := range ref.Evals {
		got := res.Results[i]
		if got.Limits.DelayPS != ev.Limits.DelayPS || got.Limits.LeakageW != ev.Limits.LeakageW ||
			got.BaseLost != ev.BaseLost || got.MeanLatencyPS != ev.MeanLatencyPS || got.MeanLeakageW != ev.MeanLeakageW {
			return fmt.Errorf("config %d differs from the in-process sweep", i)
		}
		for j, y := range ev.Yields {
			if got.Yields[j].Lost != y.Lost {
				return fmt.Errorf("config %d %s: %d losses, reference %d", i, y.Scheme, got.Yields[j].Lost, y.Lost)
			}
		}
		for j, e := range econ[i] {
			g := got.Economics[j]
			if g.SellableFraction != e.SellableFraction || g.RevenuePerWafer != e.RevenuePerWafer || g.CostPerDie != e.CostPerDie {
				return fmt.Errorf("config %d %s: economics differ from the reference", i, e.Scheme)
			}
		}
	}
	if !reflect.DeepEqual(res.Frontiers, ref.Frontiers) {
		return fmt.Errorf("frontiers %v, reference %v", res.Frontiers, ref.Frontiers)
	}
	return nil
}

// durableWorkload: one client asks for precision-targeted studies over
// a file store, each under its own Idempotency-Key; afterwards the
// store is reopened and the last request replayed from it.
type durableWorkload struct {
	seed    int64
	targets []float64 // estimate.chips of each response
	last    reply
}

const (
	durableChips    = 20000
	durableTargetCI = 0.01
)

func (w *durableWorkload) name() string  { return "study-durable" }
func (w *durableWorkload) clients() int  { return 1 }
func (w *durableWorkload) durable() bool { return true }

func durableRequest(seed int64) server.StudyRequest {
	return server.StudyRequest{Seed: seed, Chips: durableChips,
		Precision: &server.PrecisionSpec{TargetCIWidth: durableTargetCI, Confidence: 0.95}}
}

func (w *durableWorkload) idemKey(step int) string { return fmt.Sprintf("bench-%d-%d", w.seed, step) }

func (w *durableWorkload) warm(h *harness) error {
	rp := h.post("/v1/study", durableRequest(deriveSeed(w.seed, "durable-warm", 0)), "bench-warm")
	if !rp.ok() {
		return errors.New(rp.failure())
	}
	return nil
}

func (w *durableWorkload) send(h *harness, step, client int) reply {
	return h.post("/v1/study", durableRequest(deriveSeed(w.seed, "durable", step)), w.idemKey(step))
}

func (w *durableWorkload) check(step int, rs []reply) []error {
	w.last = rs[0]
	res, err := decodeStudy(rs[0].body, 0)
	if err != nil {
		return []error{err}
	}
	e := res.Estimate
	if e == nil || !res.EarlyStop || !e.EarlyStop || e.HalfWidth > durableTargetCI {
		return []error{fmt.Errorf("want an early stop at half-width <= %g, got %+v", durableTargetCI, e)}
	}
	w.targets = append(w.targets, float64(e.Chips))
	return []error{nil}
}

func (w *durableWorkload) replay(ctx context.Context, r *runner, step, reqSpan int, rs []reply) error {
	var res server.StudyResponse
	if err := json.Unmarshal(rs[0].body, &res); err != nil {
		return err
	}
	if res.Estimate == nil {
		return errors.New("the response carries no estimate")
	}
	seed := deriveSeed(w.seed, "durable", step)
	if err := replayStudy(ctx, r.tr, reqSpan, step, seed, durableChips, durableTargetCI, true); err != nil {
		return err
	}
	if err := replayEncode(r.tr, reqSpan, step, rs[0].body, new(server.StudyResponse)); err != nil {
		return err
	}
	for _, c := range r.timed.within(rs[0].start, rs[0].end) {
		r.tr.add(span{Parent: reqSpan, Request: step, Name: "persist", Start: c.start, End: c.end,
			OnPath: true, Size: c.bytes})
	}
	replayChips(r.tr, reqSpan, step, yieldcache.DefaultTech(), seed, res.Estimate.Chips)
	if err := replayBuildNoEstimate(ctx, r.tr, reqSpan, step, seed, res.Estimate.Chips); err != nil {
		return err
	}
	return r.queueWait(rs[0])
}

func (w *durableWorkload) finish(ctx context.Context, r *runner) error {
	var sum float64
	for _, c := range w.targets {
		sum += c
	}
	r.chips = sum
	r.metric("chips_to_target", stat.Median(w.targets), "chips", len(w.targets))

	first, err := decodeStudy(r.first[0].body, 0)
	if err != nil {
		return err
	}
	st, err := yieldcache.NewStudyCtx(ctx, yieldcache.StudyConfig{Chips: first.Estimate.Chips, Seed: deriveSeed(w.seed, "durable", 0)})
	if err != nil {
		return err
	}
	if err := compareStudy(first, st); err != nil {
		return fmt.Errorf("early-stopped study vs a full build of its prefix: %w", err)
	}
	return w.recover(r)
}

// recover stops the server, reopens its store and times the restart,
// then checks that the last request replays from the recovered store.
func (w *durableWorkload) recover(r *runner) error {
	dir := r.h.dir
	if err := r.h.stop(); err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	t0 := time.Now()
	f, err := store.OpenFile(dir)
	opened := time.Now()
	if err != nil {
		return fmt.Errorf("reopening the store: %w", err)
	}
	srv := server.New(server.Config{Store: f})
	r.metric("recover_s", time.Since(t0).Seconds(), "s", 1)
	r.h = startHarness(srv, f, dir)
	r.metric("persist.recover_ms", float64(opened.Sub(t0))/1e6, "ms", 1)

	r.attempted++
	rp := r.h.post("/v1/study", durableRequest(deriveSeed(w.seed, "durable", r.steps-1)), w.idemKey(r.steps-1))
	if !rp.ok() || !rp.replayed {
		return fmt.Errorf("replaying the last request after recovery: replayed=%v %s", rp.replayed, rp.failure())
	}
	same, err := sameResult(w.last.body, rp.body)
	if err == nil && !same {
		err = errors.New("the recovered replay differs from the original response")
	}
	return err
}
