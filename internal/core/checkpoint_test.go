package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
)

// chipsEqual compares two populations chip by chip on the measurement
// fields the analysis consumes; used to assert bit-identical resumes.
func chipsEqual(t *testing.T, label string, a, b *Population) {
	t.Helper()
	if len(a.Chips) != len(b.Chips) {
		t.Fatalf("%s: %d chips vs %d", label, len(a.Chips), len(b.Chips))
	}
	for i := range a.Chips {
		ma, mb := &a.Chips[i].Meas, &b.Chips[i].Meas
		if ma.LatencyPS != mb.LatencyPS || ma.LeakageW != mb.LeakageW {
			t.Fatalf("%s: chip %d differs: latency %v vs %v, leakage %v vs %v",
				label, i, ma.LatencyPS, mb.LatencyPS, ma.LeakageW, mb.LeakageW)
		}
		for w := range ma.Ways {
			wa, wb := &ma.Ways[w], &mb.Ways[w]
			if wa.LatencyPS != wb.LatencyPS || wa.LeakageW != wb.LeakageW {
				t.Fatalf("%s: chip %d way %d differs", label, i, w)
			}
		}
	}
}

// A build resumed from a mid-flight checkpoint must produce populations
// bit-identical to an uninterrupted run with the same seed — the
// acceptance bar for crash recovery. Checkpoints are offered at look
// points, so the build spans several of them. The instrumented build
// runs at most one worker per P and per CPU: a worker beyond either can
// wait for one while holding an early batch unmeasured, and the build
// can then end before its first look.
func TestResumeFromCheckpointBitIdentical(t *testing.T) {
	const n, seed = 3000, 2006
	wantReg, wantHor := build(t, PopulationConfig{N: n, Seed: seed})

	// Capture checkpoints from an instrumented build.
	var mu sync.Mutex
	var last *BuildCheckpoint
	cfg := PopulationConfig{N: n, Seed: seed, Workers: min(runtime.GOMAXPROCS(0), runtime.NumCPU()), Checkpoint: &CheckpointConfig{
		Sink: func(bc *BuildCheckpoint) error {
			// Deep-copy through the wire format, exactly like the server:
			// the in-memory checkpoint aliases the build arena.
			var buf bytes.Buffer
			if err := bc.Encode(&buf); err != nil {
				return err
			}
			dec, err := DecodeBuildCheckpoint(&buf)
			if err != nil {
				return err
			}
			if dec.Done%sram.BatchWidth != 0 && dec.Done != n {
				t.Errorf("checkpoint Done %d is neither a batch edge nor N = %d", dec.Done, n)
			}
			mu.Lock()
			// Keep the newest strictly-mid-build checkpoint: the last
			// look can land after every chip finished, and resuming from
			// a complete prefix would not exercise the rebuild tail.
			if dec.Done < n && (last == nil || dec.Done > last.Done) {
				last = dec
			}
			mu.Unlock()
			return nil
		},
	}}
	res, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	chipsEqual(t, "instrumented regular", res.Regular, wantReg)
	chipsEqual(t, "instrumented horizontal", DeriveHorizontal(res.Regular), wantHor)

	mu.Lock()
	ck := last
	mu.Unlock()
	if ck == nil || ck.Done == 0 || ck.Done >= n {
		t.Fatalf("checkpoint %+v of %d chips is not mid-build", ck, n)
	}

	// Resume: the prefix comes from the checkpoint, the rest rebuilds.
	res, err = Build(context.Background(), PopulationConfig{
		N: n, Seed: seed, Workers: runtime.GOMAXPROCS(0) + 1, // different worker count on purpose
		Checkpoint: &CheckpointConfig{Resume: ck},
	})
	if err != nil {
		t.Fatal(err)
	}
	chipsEqual(t, "resumed regular", res.Regular, wantReg)
	chipsEqual(t, "resumed horizontal", DeriveHorizontal(res.Regular), wantHor)

	// A precision build wires its arena segment by segment, and resume
	// wires the segments below Done before copying the prefix in. Resume
	// one with Done inside a segment and one exactly on a segment edge;
	// the target stops both past Done, at the uninterrupted build's stop,
	// and the kept prefix must match an uninterrupted build on every
	// field.
	const pn = 4000
	fullReg, fullHor := build(t, PopulationConfig{N: pn, Seed: seed})
	uncfg := armedConfig(pn, 3, nil)
	uncfg.Seed = seed
	uncfg.Estimate.TargetCIWidth = 0.02
	uninterrupted, err := Build(context.Background(), uncfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := len(uninterrupted.Regular.Chips)
	for _, done := range []int{chipSegment + 188, 2 * chipSegment} {
		ck := &BuildCheckpoint{
			Seed: seed, N: pn, Done: done,
			Tech: fullReg.Model.Tech, Geom: fullReg.Model.Geom,
			Regular: fullReg.Chips[:done],
		}
		cfg := armedConfig(pn, 3, nil)
		cfg.Seed = seed
		cfg.Estimate.TargetCIWidth = 0.02
		cfg.Checkpoint = &CheckpointConfig{Resume: ck}
		res, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatalf("precision resume at %d: %v", done, err)
		}
		kept := len(res.Regular.Chips)
		if kept <= done || kept >= pn {
			t.Fatalf("precision resume at %d kept %d of %d chips: want an early stop past Done", done, kept, pn)
		}
		if kept != stop {
			t.Errorf("precision resume at %d kept %d chips, the uninterrupted build %d", done, kept, stop)
		}
		measIdentical(t, "precision-resumed regular", res.Regular, &Population{Chips: fullReg.Chips[:kept]})
		measIdentical(t, "precision-resumed horizontal", DeriveHorizontal(res.Regular), &Population{Chips: fullHor.Chips[:kept]})
	}
}

// TestResumeTraceLanes checks that a resumed build draws its workers
// on trace lanes 2…W+1, by worker index, not by each worker's first
// chip.
func TestResumeTraceLanes(t *testing.T) {
	const n, done, workers, seed = 120, 40, 3, 2006
	reg, _ := build(t, PopulationConfig{N: n, Seed: seed})
	ck := &BuildCheckpoint{
		Seed: seed, N: n, Done: done,
		Tech: reg.Model.Tech, Geom: reg.Model.Geom,
		Regular: reg.Chips[:done],
	}
	scope := obs.NewScope("resume", nil)
	_, err := Build(obs.WithScope(context.Background(), scope), PopulationConfig{
		N: n, Seed: seed, Workers: workers, Checkpoint: &CheckpointConfig{Resume: ck},
	})
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[int]int{}
	for _, s := range scope.Tracer.Spans() {
		if s.Name == "measure_chips" {
			lanes[s.Lane]++
		}
	}
	for lane := 2; lane < 2+workers; lane++ {
		if lanes[lane] != 1 {
			t.Errorf("resumed build: lane %d holds %d measure_chips spans, want 1 (lanes %v)", lane, lanes[lane], lanes)
		}
	}
	if len(lanes) != workers {
		t.Errorf("resumed build drew measure_chips on lanes %v, want 2…%d", lanes, workers+1)
	}
}

// counters reads the named counters of reg.
func counters(reg *obs.Registry, names ...string) map[string]int64 {
	got := map[string]int64{}
	for _, name := range names {
		got[name] = reg.Counter(name).Value()
	}
	return got
}

// TestCheckpointLookPoints pins the offer schedule: the checkpointer
// reads no clock and offers the prefix at every look point it passes,
// so a one-worker build, whose prefix reaches each multiple of 64
// exactly, offers Done = 64, 128, … below N, in order.
func TestCheckpointLookPoints(t *testing.T) {
	const n, seed = 600, 2006
	var got, want []int
	build(t, PopulationConfig{N: n, Seed: seed, Workers: 1, Checkpoint: &CheckpointConfig{
		Sink: func(bc *BuildCheckpoint) error {
			got = append(got, bc.Done)
			return nil
		},
	}})
	for p := lookStep; p < n; p += lookStep {
		want = append(want, p)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint offers at %v, want %v", got, want)
	}
}

// TestCheckpointCounters pins the build-checkpoint series: every Sink
// error counts once, and every resumed build counts once.
func TestCheckpointCounters(t *testing.T) {
	defer obs.Disable()
	const n, seed = 64, 5
	names := []string{"core_checkpoint_sink_errors_total", "core_builds_resumed_total"}
	for _, sinkErr := range []error{nil, errors.New("disk full")} {
		reg := obs.Enable()
		calls := int64(0)
		build(t, PopulationConfig{N: n, Seed: seed, Workers: 1, Checkpoint: &CheckpointConfig{
			Sink: func(*BuildCheckpoint) error {
				calls++
				return sinkErr
			},
		}})
		want := map[string]int64{names[0]: 0, names[1]: 0}
		if sinkErr != nil {
			want[names[0]] = calls
		}
		if got := counters(reg, names...); calls == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("sink error %v: %d sink calls left the counters at %v, want %v", sinkErr, calls, got, want)
		}
	}

	full, _ := build(t, PopulationConfig{N: n, Seed: seed})
	reg := obs.Enable()
	build(t, PopulationConfig{N: n, Seed: seed, Checkpoint: &CheckpointConfig{Resume: &BuildCheckpoint{
		Seed: seed, N: n, Done: 16,
		Tech: full.Model.Tech, Geom: full.Model.Geom,
		Regular: full.Chips[:16],
	}}})
	if got := counters(reg, names...); got[names[1]] != 1 {
		t.Errorf("a resumed build left the counters at %v, want core_builds_resumed_total 1", got)
	}
}

// A checkpoint from a different build must be refused, not silently
// blended into the wrong population.
func TestResumeValidatesProvenance(t *testing.T) {
	const n, seed = 40, 7
	reg, _ := build(t, PopulationConfig{N: n, Seed: seed})
	good := &BuildCheckpoint{
		Seed: seed, N: n, Done: 10,
		Tech: reg.Model.Tech, Geom: reg.Model.Geom,
		Regular: reg.Chips[:10],
	}

	cases := []struct {
		name   string
		mutate func(c *BuildCheckpoint)
		want   string
	}{
		{"wrong seed", func(c *BuildCheckpoint) { c.Seed = 999 }, "seed"},
		{"wrong n", func(c *BuildCheckpoint) { c.N = n + 1 }, "chips"},
		{"wrong geometry", func(c *BuildCheckpoint) { c.Geom.Ways = 99 }, "geometry"},
		{"wrong tech", func(c *BuildCheckpoint) { c.Tech.Vdd = 9.9 }, "technology"},
		// Shape checks: a prefix shorter than Done, and a chip that does
		// not fit the geometry, must be refused before the resume copy
		// indexes into them.
		{"done past the prefix", func(c *BuildCheckpoint) { c.Done, c.Regular = 8, c.Regular[:4] }, "inconsistent"},
		{"chip with one way", func(c *BuildCheckpoint) {
			c.Regular = append([]Chip(nil), c.Regular...)
			c.Regular[3].Meas.Ways = c.Regular[3].Meas.Ways[:1]
		}, "does not match"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *good
			tc.mutate(&bad)
			_, err := Build(context.Background(), PopulationConfig{
				N: n, Seed: seed, Checkpoint: &CheckpointConfig{Resume: &bad},
			})
			if err == nil {
				t.Fatal("mismatched checkpoint accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the %s mismatch", err, tc.want)
			}
		})
	}
}

// The checkpoint wire format round-trips and rejects an inconsistent
// frontier.
func TestCheckpointEncodeDecode(t *testing.T) {
	const n, seed = 30, 3
	reg, _ := build(t, PopulationConfig{N: n, Seed: seed})
	ck := &BuildCheckpoint{
		Seed: seed, N: n, Done: n,
		Tech: reg.Model.Tech, Geom: reg.Model.Geom,
		Regular: reg.Chips,
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBuildCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Done != n || got.Seed != seed || len(got.Regular) != n {
		t.Fatalf("round trip mangled the checkpoint: %+v", got)
	}
	for i := range got.Regular {
		if got.Regular[i].Meas.LatencyPS != reg.Chips[i].Meas.LatencyPS {
			t.Fatalf("chip %d latency changed in round trip", i)
		}
	}

	// Inconsistent frontier: Done beyond the stored prefix.
	bad := *ck
	bad.Done = n + 5
	bad.N = n + 10
	buf.Reset()
	if err := bad.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBuildCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("inconsistent checkpoint: err = %v, want named inconsistency", err)
	}

}

// encodedCheckpoint returns the encoding of a complete n-chip
// checkpoint.
func encodedCheckpoint(tb testing.TB, n int) []byte {
	reg, _ := build(tb, PopulationConfig{N: n, Seed: 5})
	ck := &BuildCheckpoint{
		Seed: 5, N: n, Done: n,
		Tech: reg.Model.Tech, Geom: reg.Model.Geom,
		Regular: reg.Chips,
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encodedPairCheckpoint returns the encoding of the [0, done) prefix of
// an n-chip build in the layout of builds that also stored the H-YAPD
// prefix: the type's name and fields are that layout's, so the bytes
// are the ones such a build wrote.
func encodedPairCheckpoint(tb testing.TB, reg, hor *Population, n, done int) []byte {
	type BuildCheckpoint struct {
		Seed       int64
		N          int
		Done       int
		Pair       bool
		Tech       circuit.Tech
		Geom       sram.Geometry
		Regular    []Chip
		Horizontal []Chip
	}
	ck := &BuildCheckpoint{
		Seed: reg.Seed, N: n, Done: done, Pair: true,
		Tech: reg.Model.Tech, Geom: reg.Model.Geom,
		Regular: reg.Chips[:done], Horizontal: hor.Chips[:done],
	}
	var payload, buf bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		tb.Fatal(err)
	}
	if err := writeFramed(&buf, payload.Bytes()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// damage is one damaged checkpoint encoding and the phrase its decode
// error must contain.
type damage struct {
	name, want string
	data       []byte
}

// damagedCheckpoints returns every way the encoding good, of a
// checkpoint of at least one chip, can be damaged.
func damagedCheckpoints(tb testing.TB, good []byte) []damage {
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	// reshape re-encodes good with one chip's measurement cut short:
	// framing and checksum intact, the chip's shape off its geometry.
	reshape := func(f func(m *sram.CacheMeasurement)) []byte {
		ck, err := DecodeBuildCheckpoint(bytes.NewReader(good))
		if err != nil {
			tb.Fatal(err)
		}
		f(&ck.Regular[len(ck.Regular)-1].Meas)
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return []damage{
		{"empty input", "truncated in header", nil},
		{"garbage", "magic", []byte(strings.Repeat("not gob ", 4))},
		{"truncated header", "truncated in header", good[:7]},
		{"foreign magic", "magic", edit(func(b []byte) { copy(b, "YCPOP") })},
		{"wrong version", "version 99", edit(func(b []byte) { b[5] = 99 })},
		{"truncated payload", "truncated", good[:len(good)-10]},
		{"oversized length", "truncated", edit(func(b []byte) { copy(b[6:10], "\xff\xff\xff\xff") })},
		{"payload bit flip", "checksum", edit(func(b []byte) { b[len(b)-1] ^= 0x40 })},
		{"chip with one way", "does not match its 4×", reshape(func(m *sram.CacheMeasurement) {
			m.Ways = m.Ways[:1]
		})},
		{"chip missing a path", "does not match", reshape(func(m *sram.CacheMeasurement) {
			p := m.Ways[3].Banks[1].Paths
			m.Ways[3].Banks[1].Paths = p[:len(p)-1]
		})},
	}
}

// Every way a checkpoint file can be damaged must fail with an error
// that names the problem: the framing before gob ever touches the
// bytes, and a chip whose shape does not match the checkpoint's
// geometry before a resume copies it into a build arena.
func TestDecodeBuildCheckpointDamage(t *testing.T) {
	for _, c := range damagedCheckpoints(t, encodedCheckpoint(t, 4)) {
		_, err := DecodeBuildCheckpoint(bytes.NewReader(c.data))
		if err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestResumeFromPairCheckpoint pins compatibility with checkpoints
// written when builds also stored the H-YAPD prefix (Pair and
// Horizontal): one decodes, resumes bit-identically to an
// uninterrupted build, the horizontal population derived from the
// resumed one equals the uninterrupted build's, and the current
// encoding of the same 256-chip prefix is at most 0.55× its size.
func TestResumeFromPairCheckpoint(t *testing.T) {
	const n, done, seed = 320, 256, 2006
	reg, hor := build(t, PopulationConfig{N: n, Seed: seed})
	old := encodedPairCheckpoint(t, reg, hor, n, done)
	ck, err := DecodeBuildCheckpoint(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done != done || len(ck.Regular) != done {
		t.Fatalf("pair checkpoint decoded to done=%d with %d chips, want %d", ck.Done, len(ck.Regular), done)
	}
	res, err := Build(context.Background(), PopulationConfig{
		N: n, Seed: seed, Workers: 2, Checkpoint: &CheckpointConfig{Resume: ck},
	})
	if err != nil {
		t.Fatal(err)
	}
	measIdentical(t, "resumed regular", res.Regular, reg)
	measIdentical(t, "derived horizontal", DeriveHorizontal(res.Regular), hor)

	var cur bytes.Buffer
	if err := ck.Encode(&cur); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(cur.Len()) / float64(len(old)); ratio > 0.55 {
		t.Errorf("a %d-chip checkpoint encodes to %d bytes, %.2f× the %d of the pair layout: want at most 0.55×",
			done, cur.Len(), ratio, len(old))
	}
}

// FuzzDecodeBuildCheckpoint feeds arbitrary bytes to the checkpoint
// decoder: it must never panic, a checkpoint it accepts must re-encode
// and decode to an equal value, and resuming a build of up to 64 chips
// from it must not panic either.
func FuzzDecodeBuildCheckpoint(f *testing.F) {
	good := encodedCheckpoint(f, 2)
	f.Add(good)
	for _, c := range damagedCheckpoints(f, good) {
		f.Add(c.data)
	}
	reg, hor := build(f, PopulationConfig{N: 2, Seed: 5})
	f.Add(encodedPairCheckpoint(f, reg, hor, 2, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeBuildCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := ck.Encode(&first); err != nil {
			t.Fatalf("re-encoding an accepted checkpoint: %v", err)
		}
		again, err := DecodeBuildCheckpoint(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded checkpoint: %v", err)
		}
		// Compare encodings, not values: a NaN field never equals itself.
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("checkpoint changed across a re-encode and decode")
		}
		// A resume of another build is an error, never a panic.
		if ck.N <= 64 {
			Build(context.Background(), PopulationConfig{
				N: ck.N, Seed: ck.Seed, Workers: 1, Checkpoint: &CheckpointConfig{Resume: ck},
			})
		}
	})
}
