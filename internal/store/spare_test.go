package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapshotFiles counts the files under results/, checkpoints/ and
// spare/, and the spare ones alone.
func snapshotFiles(t *testing.T, dir string) (all, spare int) {
	t.Helper()
	for _, sub := range []string{"results", "checkpoints", "spare"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		all += len(entries)
		if sub == "spare" {
			spare = len(entries)
		}
	}
	return all, spare
}

// Deleting results and replacing checkpoint generations frees no file:
// every retired snapshot moves into the spare pool, the next put
// overwrites a spare, the pool never holds more files than the peak
// number of live snapshots, and bodies written over longer spares read
// back at their own length, before and after a reopen.
func TestFileRecyclesSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir)
	long := bytes.Repeat([]byte("x"), 4096)
	files, peakLive := 0, 0
	step := func(what string, live int, op func() error) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		all, spare := snapshotFiles(t, dir)
		if all < files {
			t.Errorf("%s: %d snapshot files, %d before: a file was freed", what, all, files)
		}
		files, peakLive = all, max(peakLive, live)
		if spare > peakLive {
			t.Errorf("%s: %d spare files, peak live %d", what, spare, peakLive)
		}
	}
	for i, key := range []string{"a", "b", "c"} {
		step("put "+key, i+1, func() error { return f.PutResult(key, long) })
	}
	step("delete a", 2, func() error { return f.DeleteResult("a") })
	step("delete b", 1, func() error { return f.DeleteResult("b") })
	step("put d over a spare", 2, func() error { return f.PutResult("d", []byte(`{"d":1}`)) })
	step("re-put live c", 2, func() error { return f.PutResult("c", []byte(`{"c":2}`)) })
	step("checkpoint 64", 3, func() error { return f.PutCheckpoint("j1", 64, long) })
	// A new generation is live beside the old one until its record
	// lands: 4 live files at that instant.
	for _, chips := range []int{128, 192, 256} {
		step("checkpoint", 4, func() error { return f.PutCheckpoint("j1", chips, []byte("ckpt-"+strings.Repeat("y", chips))) })
	}
	step("checkpoint at the live frontier", 4, func() error { return f.PutCheckpoint("j1", 256, []byte("ckpt-256b")) })
	if all, spare := snapshotFiles(t, dir); spare != 1 || all != 4 {
		t.Errorf("after recycling: %d files, %d spare; want the 3 live files and 1 spare", all, spare)
	}

	checkpoint := func(f *File) {
		t.Helper()
		data, chips, err := f.Checkpoint("j1")
		if err != nil || chips != 256 || string(data) != "ckpt-256b" {
			t.Errorf("Checkpoint = %q, %d, %v; want ckpt-256b at 256 chips", data, chips, err)
		}
	}
	checkpoint(f)
	step("delete checkpoint", 3, func() error { return f.DeleteCheckpoint("j1") })
	step("checkpoint again", 3, func() error { return f.PutCheckpoint("j1", 256, []byte("ckpt-256b")) })
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f = mustOpen(t, dir)
	defer f.Close()
	checkpoint(f)
	rec, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rec.Results {
		got[r.Key] = string(r.Body)
	}
	if len(got) != 2 || got["d"] != `{"d":1}` || got["c"] != `{"c":2}` {
		t.Errorf("recovered results %q, want d and c at their own lengths", got)
	}
}

// A put whose WAL append fails leaves no file under the live name: the
// snapshot goes back to the pool, and the previous generation stays
// the live one.
func TestFileFailedAppendReturnsSnapshotToPool(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir)
	defer f.Close()
	if err := f.PutCheckpoint("j1", 64, []byte("ckpt-64")); err != nil {
		t.Fatal(err)
	}
	f.failpoint = func([]byte) ([]byte, error) { return nil, os.ErrDeadlineExceeded }
	if err := f.PutCheckpoint("j1", 128, []byte("ckpt-128")); !IsTransient(err) {
		t.Fatalf("failed append: err = %v, want transient", err)
	}
	f.failpoint = nil
	if _, err := os.Stat(f.ckptPath("j1", 128)); !os.IsNotExist(err) {
		t.Errorf("the failed generation's file is still live: %v", err)
	}
	if data, chips, err := f.Checkpoint("j1"); err != nil || chips != 64 || string(data) != "ckpt-64" {
		t.Errorf("Checkpoint = %q, %d, %v; want ckpt-64 at 64 chips", data, chips, err)
	}
	if _, spare := snapshotFiles(t, dir); spare != 1 {
		t.Errorf("%d spare files, want the failed snapshot's 1", spare)
	}
}

// A data directory written before the spare pool — records without a
// length, checkpoints named <id>.ckpt, tmp files of interrupted writes
// — recovers: bodies read whole, the checkpoint moves to its
// generation's name, orphans and tmp files go to the pool, and the
// store keeps working across further reopens.
func TestFileOpensLegacyDataDir(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"results", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	wal := frames(t,
		walRecord{T: "job", Job: &JobRecord{ID: "j000001", Seq: 1, State: "running"}},
		walRecord{T: "res", Key: "k1"},
		walRecord{T: "res", Key: "k2"},
		walRecord{T: "resdel", Key: "k2"},
		walRecord{T: "ckpt", Key: "j000001", Chips: 64},
		walRecord{T: "ckpt", Key: "j000001", Chips: 128})
	if bytes.Contains(wal, []byte(`"len"`)) {
		t.Fatal("a record without Len encodes a len field")
	}
	write := func(rel, body string) {
		if err := os.WriteFile(filepath.Join(dir, rel), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(walName, string(wal))
	write(filepath.Join("results", hashKey("k1")+".json"), `{"k":1}`)
	write(filepath.Join("results", hashKey("k2")+".json"), `{"k":2}`)
	write(filepath.Join("results", hashKey("k3")+".json.tmp"), `{"k":`)
	write(filepath.Join("checkpoints", "j000001.ckpt"), "ckpt-128")
	write(filepath.Join("checkpoints", "j000001.ckpt.tmp"), "ckpt-1")

	for round := 0; round < 2; round++ {
		f := mustOpen(t, dir)
		rec, err := f.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Results) != 1 || rec.Results[0].Key != "k1" || string(rec.Results[0].Body) != `{"k":1}` {
			t.Errorf("open %d: results %+v, want k1 whole", round, rec.Results)
		}
		if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "j000001" {
			t.Errorf("open %d: jobs %+v", round, rec.Jobs)
		}
		if data, chips, err := f.Checkpoint("j000001"); err != nil || chips != 128 || string(data) != "ckpt-128" {
			t.Errorf("open %d: Checkpoint = %q, %d, %v; want ckpt-128 at 128 chips", round, data, chips, err)
		}
		all, spare := snapshotFiles(t, dir)
		if all != 5 || spare != 3 {
			t.Errorf("open %d: %d files, %d spare; want k1, the checkpoint and 3 spares", round, all, spare)
		}
		if _, err := os.Stat(filepath.Join(dir, "checkpoints", "j000001.128.ckpt")); err != nil {
			t.Errorf("open %d: checkpoint not under its generation's name: %v", round, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f := mustOpen(t, dir)
	defer f.Close()
	if err := f.PutCheckpoint("j000001", 192, []byte("ckpt-192")); err != nil {
		t.Fatal(err)
	}
	if data, chips, err := f.Checkpoint("j000001"); err != nil || chips != 192 || string(data) != "ckpt-192" {
		t.Errorf("Checkpoint after a new generation = %q, %d, %v", data, chips, err)
	}
}
