package store

import (
	"bytes"
	"errors"
	"testing"

	"yieldcache/internal/obs"
)

// withFileStore runs a subtest against the File store. The restart
// callback models a process boundary: it closes the store and reopens
// the data directory, exactly what a crashed-and-restarted yieldd does.
func withFileStore(t *testing.T, run func(t *testing.T, s Store, restart func(Store) Store)) {
	t.Helper()
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		f, err := OpenFile(dir)
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		run(t, f, func(s Store) Store {
			if err := s.Close(); err != nil {
				t.Fatalf("Close before restart: %v", err)
			}
			nf, err := OpenFile(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			return nf
		})
	})
}

func TestStoreJobNewestRecordWins(t *testing.T) {
	withFileStore(t, func(t *testing.T, s Store, restart func(Store) Store) {
		defer s.Close()
		put := func(rec JobRecord) {
			t.Helper()
			if err := s.PutJob(rec); err != nil {
				t.Fatalf("PutJob: %v", err)
			}
		}
		put(JobRecord{ID: "j000002", Seq: 2, Key: "k2", State: "queued", Seed: 7})
		put(JobRecord{ID: "j000001", Seq: 1, Key: "k1", State: "queued", Seed: 2006})
		put(JobRecord{ID: "j000001", Seq: 1, Key: "k1", State: "running", Seed: 2006})
		put(JobRecord{ID: "j000001", Seq: 1, Key: "k1", State: "done", Seed: 2006, Class: "ok"})

		s = restart(s)
		rec, err := s.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(rec.Jobs) != 2 {
			t.Fatalf("recovered %d jobs, want 2", len(rec.Jobs))
		}
		// Ascending Seq, newest record per ID.
		if rec.Jobs[0].ID != "j000001" || rec.Jobs[0].State != "done" || rec.Jobs[0].Class != "ok" {
			t.Errorf("job[0] = %+v, want j000001 done/ok", rec.Jobs[0])
		}
		if rec.Jobs[1].ID != "j000002" || rec.Jobs[1].State != "queued" {
			t.Errorf("job[1] = %+v, want j000002 queued", rec.Jobs[1])
		}
	})
}

func TestStoreResultsKeepWriteOrder(t *testing.T) {
	withFileStore(t, func(t *testing.T, s Store, restart func(Store) Store) {
		defer s.Close()
		for _, k := range []string{"a", "b", "c"} {
			if err := s.PutResult(k, []byte(`{"key":"`+k+`"}`)); err != nil {
				t.Fatalf("PutResult(%s): %v", k, err)
			}
		}
		if err := s.DeleteResult("b"); err != nil {
			t.Fatalf("DeleteResult: %v", err)
		}
		// Re-inserting moves the key to the back of the FIFO.
		if err := s.PutResult("a", []byte(`{"key":"a2"}`)); err != nil {
			t.Fatalf("PutResult(a again): %v", err)
		}
		s = restart(s)
		rec, err := s.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(rec.Results) != 2 {
			t.Fatalf("recovered %d results, want 2", len(rec.Results))
		}
		if rec.Results[0].Key != "c" || rec.Results[1].Key != "a" {
			t.Errorf("result order = %s,%s, want c,a", rec.Results[0].Key, rec.Results[1].Key)
		}
		if !bytes.Equal(rec.Results[1].Body, []byte(`{"key":"a2"}`)) {
			t.Errorf("re-put body = %s, want the newest write", rec.Results[1].Body)
		}
	})
}

func TestStoreIdemRoundTrip(t *testing.T) {
	withFileStore(t, func(t *testing.T, s Store, restart func(Store) Store) {
		defer s.Close()
		a := IdemRecord{Key: "alpha", BodyHash: "h1", StudyKey: "k1", JobID: "j000001"}
		b := IdemRecord{Key: "beta", BodyHash: "h2", StudyKey: "k2", JobID: "j000002"}
		for _, r := range []IdemRecord{a, b} {
			if err := s.PutIdem(r); err != nil {
				t.Fatalf("PutIdem: %v", err)
			}
		}
		if err := s.DeleteIdem("beta"); err != nil {
			t.Fatalf("DeleteIdem: %v", err)
		}
		s = restart(s)
		rec, err := s.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(rec.Idem) != 1 || rec.Idem[0] != a {
			t.Errorf("recovered idem = %+v, want exactly %+v", rec.Idem, a)
		}
	})
}

func TestStoreCheckpointReplaceAndDelete(t *testing.T) {
	withFileStore(t, func(t *testing.T, s Store, restart func(Store) Store) {
		defer s.Close()
		if _, _, err := s.Checkpoint("j000001"); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("Checkpoint before put: err = %v, want ErrNoCheckpoint", err)
		}
		if err := s.PutCheckpoint("j000001", 100, []byte("ckpt-v1")); err != nil {
			t.Fatalf("PutCheckpoint: %v", err)
		}
		if err := s.PutCheckpoint("j000001", 250, []byte("ckpt-v2")); err != nil {
			t.Fatalf("PutCheckpoint(replace): %v", err)
		}
		data, chips, err := s.Checkpoint("j000001")
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if chips != 250 || !bytes.Equal(data, []byte("ckpt-v2")) {
			t.Errorf("checkpoint = %d chips %q, want 250 chips ckpt-v2", chips, data)
		}
		if err := s.DeleteCheckpoint("j000001"); err != nil {
			t.Fatalf("DeleteCheckpoint: %v", err)
		}
		if _, _, err := s.Checkpoint("j000001"); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("Checkpoint after delete: err = %v, want ErrNoCheckpoint", err)
		}
	})
}

func TestStoreClosedRefusesWrites(t *testing.T) {
	withFileStore(t, func(t *testing.T, s Store, restart func(Store) Store) {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		err := s.PutJob(JobRecord{ID: "j000001", Seq: 1})
		var se *Error
		if !errors.As(err, &se) {
			t.Fatalf("PutJob after Close: err = %v, want *store.Error", err)
		}
		if se.Transient {
			t.Error("closed-store error reported transient")
		}
	})
}

func TestDoRetriesTransientOnly(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	counts := func(when string, retries, errs int64) {
		t.Helper()
		if got := reg.Counter("store_retries_total").Value(); got != retries {
			t.Errorf("%s: store_retries_total = %d, want %d", when, got, retries)
		}
		if got := reg.Counter(`store_errors_total{op="test_op"}`).Value(); got != errs {
			t.Errorf(`%s: store_errors_total{op="test_op"} = %d, want %d`, when, got, errs)
		}
	}

	calls := 0
	err := Do("test_op", func() error {
		calls++
		if calls < 3 {
			return &Error{Op: "test_op", Transient: true, Err: errors.New("flaky")}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("transient retry: err=%v calls=%d, want nil after 3", err, calls)
	}
	counts("after a success on the third try", 2, 0)

	calls = 0
	perm := &Error{Op: "test_op", Err: errors.New("wedged")}
	if err := Do("test_op", func() error { calls++; return perm }); err != perm || calls != 1 {
		t.Errorf("permanent error: err=%v calls=%d, want immediate %v", err, calls, perm)
	}
	counts("after a permanent error", 2, 1)

	calls = 0
	err = Do("test_op", func() error {
		calls++
		return &Error{Op: "test_op", Transient: true, Err: errors.New("always down")}
	})
	if err == nil || calls != retryAttempts {
		t.Errorf("exhausted retries: err=%v calls=%d, want failure after %d", err, calls, retryAttempts)
	}
	if !IsTransient(err) {
		t.Error("final error lost its transient flag")
	}
	counts("after exhausted retries", 2+retryAttempts-1, 2)
}
