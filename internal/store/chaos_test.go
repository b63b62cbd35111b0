//go:build chaos

package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"yieldcache/internal/obs"
)

// The chaos build tag gates the heavy fault-injection runs: hundreds of
// injected faults, torn writes and reopen cycles. CI runs them with
//
//	go test -race -tags chaos ./internal/store/...
//
// They are deterministic (seeded RNG) but slow next to the unit tests.

// Error injection must surface as transient storage errors that the Do
// retry helper eventually rides out, and never corrupt the inner state.
func TestChaosErrorInjectionIsTransient(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	s := WithChaos(mustOpen(t, dir), ChaosConfig{ErrRate: 0.5, Seed: 42})
	injected, succeeded := 0, 0
	for i := 0; i < 500; i++ {
		err := s.PutJob(JobRecord{ID: fmt.Sprintf("j%06d", i), Seq: int64(i)})
		if err != nil {
			if !IsTransient(err) {
				t.Fatalf("injected error not transient: %v", err)
			}
			injected++
			continue
		}
		succeeded++
	}
	if injected == 0 || succeeded == 0 {
		t.Fatalf("injection skewed: %d errors, %d successes", injected, succeeded)
	}
	if got := reg.Counter(`store_chaos_injected_total{kind="err"}`).Value(); got != int64(injected) {
		t.Errorf(`store_chaos_injected_total{kind="err"} = %d, want the %d injected errors`, got, injected)
	}

	// Do retries transient faults but is bounded (3 attempts): at a 50%
	// error rate a single call fails ~12.5% of the time. Callers that
	// must land a write loop; model that, and check Do does the heavy
	// lifting (total calls well below one-attempt-per-retry).
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i)
		landed := false
		for attempt := 0; attempt < 20 && !landed; attempt++ {
			landed = Do("put_result", func() error {
				return s.PutResult(key, []byte(`{}`))
			}) == nil
		}
		if !landed {
			t.Fatalf("write %s never landed through chaos", key)
		}
	}
	s.Close()
	f := mustOpen(t, dir)
	defer f.Close()
	rec, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != 100 {
		t.Errorf("recovered %d results, want all 100", len(rec.Results))
	}
}

// Latency injection must delay, not fail.
func TestChaosLatency(t *testing.T) {
	s := WithChaos(mustOpen(t, t.TempDir()), ChaosConfig{Latency: 2 * time.Millisecond, Seed: 1})
	defer s.Close()
	start := time.Now()
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.PutIdem(IdemRecord{Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatalf("latency-only chaos failed an op: %v", err)
		}
	}
	if el := time.Since(start); el < n*2*time.Millisecond {
		t.Errorf("latency not injected: %d ops in %v", n, el)
	}
}

// The full crash loop: a File store with torn-write injection wedges at
// a random frame boundary; reopening the directory must always recover
// a consistent prefix of the acknowledged writes — acknowledged records
// survive, unacknowledged ones vanish cleanly, nothing is corrupt.
func TestChaosTornWriteCrashRecoveryLoop(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	acked := make(map[string]bool)
	tears := 0
	for round := 0; round < 30; round++ {
		f, err := OpenFile(dir)
		if err != nil {
			t.Fatalf("round %d: OpenFile: %v", round, err)
		}

		// Everything acked before this round must have survived.
		rec, err := f.Recover()
		if err != nil {
			t.Fatalf("round %d: Recover: %v", round, err)
		}
		seen := make(map[string]bool, len(rec.Jobs))
		for _, j := range rec.Jobs {
			seen[j.ID] = true
		}
		for id := range acked {
			if !seen[id] {
				t.Fatalf("round %d: acknowledged job %s lost", round, id)
			}
		}

		s := WithChaos(f, ChaosConfig{PartialRate: 0.25, Seed: int64(round + 1)})
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("j%03d-%03d", round, i)
			if err := s.PutJob(JobRecord{ID: id, Seq: int64(round*100 + i), State: "done"}); err != nil {
				tears++
				break // wedged: the "process" is dead until reopen
			}
			acked[id] = true
		}
		s.Close()
	}
	if tears == 0 {
		t.Error("torn-write injection never fired in 30 rounds")
	}
	if got := reg.Counter(`store_chaos_injected_total{kind="torn"}`).Value(); got != int64(tears) {
		t.Errorf(`store_chaos_injected_total{kind="torn"} = %d, want the %d tears`, got, tears)
	}
}

// Checkpoint bodies must come back byte-identical through chaos — the
// resume path depends on it.
func TestChaosCheckpointIntegrity(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := WithChaos(f, ChaosConfig{ErrRate: 0.3, Seed: 9})
	payload := bytes.Repeat([]byte{0xAB, 0xCD, 0x00, 0x42}, 4096)
	if err := Do("put_checkpoint", func() error {
		return s.PutCheckpoint("j000001", 1234, payload)
	}); err != nil {
		t.Fatalf("checkpoint never landed: %v", err)
	}
	s.Close()

	f, err = OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, chips, err := f.Checkpoint("j000001")
	if err != nil {
		t.Fatal(err)
	}
	if chips != 1234 || !bytes.Equal(data, payload) {
		t.Errorf("checkpoint mutated in flight: %d chips, %d bytes", chips, len(data))
	}
	if _, _, err := f.Checkpoint("j999999"); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing checkpoint: err = %v, want ErrNoCheckpoint", err)
	}
}

// Concurrent writers through the chaos wrapper must stay race-free
// (this test earns its keep under -race).
func TestChaosConcurrentWriters(t *testing.T) {
	f, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := WithChaos(f, ChaosConfig{ErrRate: 0.2, Latency: 100 * time.Microsecond, Seed: 5})
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("j%d-%d", w, i)
				_ = Do("put_job", func() error {
					return s.PutJob(JobRecord{ID: id, Seq: int64(w*1000 + i)})
				})
				_ = Do("put_result", func() error {
					return s.PutResult(id, []byte(`{"w":true}`))
				})
			}
		}(w)
	}
	wg.Wait()
}
