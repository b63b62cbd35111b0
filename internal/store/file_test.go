package store

import (
	"bytes"
	"encoding/binary"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendRaw writes raw bytes to the end of the WAL, simulating what a
// crash mid-append leaves behind.
func appendRaw(t *testing.T, dir string, raw []byte) {
	t.Helper()
	w, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("opening wal for damage: %v", err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatalf("writing damage: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, dir string) *File {
	t.Helper()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", dir, err)
	}
	return f
}

// A frame cut off mid-payload — the canonical torn write — must not
// cost any record before it, and the next append must land cleanly.
func TestFileTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir)
	if err := f.PutJob(JobRecord{ID: "j000001", Seq: 1, State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := f.PutResult("key1", []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear: a full-length header promising 64 payload bytes, then only 5.
	torn := make([]byte, 8, 13)
	binary.LittleEndian.PutUint32(torn, 64)
	torn = append(torn, "hello"...)
	appendRaw(t, dir, torn)
	before, _ := os.Stat(filepath.Join(dir, walName))

	f = mustOpen(t, dir)
	defer f.Close()
	rec, err := f.Recover()
	if err != nil {
		t.Fatalf("Recover after tear: %v", err)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "j000001" {
		t.Errorf("jobs after tear = %+v, want j000001 intact", rec.Jobs)
	}
	if len(rec.Results) != 1 || !bytes.Equal(rec.Results[0].Body, []byte(`{"ok":true}`)) {
		t.Errorf("results after tear = %+v, want key1 intact", rec.Results)
	}
	after, _ := os.Stat(filepath.Join(dir, walName))
	if after.Size() >= before.Size() {
		t.Errorf("WAL not repaired: %d bytes before open, %d after", before.Size(), after.Size())
	}

	// The repaired WAL must accept appends on a clean frame boundary.
	if err := f.PutJob(JobRecord{ID: "j000002", Seq: 2, State: "queued"}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	f.Close()
	rec, err = mustOpen(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 2 {
		t.Errorf("jobs after repair+append = %d, want 2", len(rec.Jobs))
	}
}

// A bit flip in a frame's payload fails the CRC: replay stops there and
// keeps everything before it.
func TestFileCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir)
	if err := f.PutJob(JobRecord{ID: "j000001", Seq: 1, State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := f.PutJob(JobRecord{ID: "j000002", Seq: 2, State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the LAST frame (frame 2 starts after
	// frame 1; find it by walking the length headers).
	n1 := binary.LittleEndian.Uint32(data)
	off := 8 + int(n1)
	data[off+8] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	f = mustOpen(t, dir)
	defer f.Close()
	rec, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "j000001" {
		t.Errorf("jobs after corruption = %+v, want only j000001", rec.Jobs)
	}
}

// CRC catches damage anywhere in the frame, including a corrupted
// length header pointing past the end: replay must never panic.
func TestFileGarbageWALStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, dir, []byte("this is not a WAL at all, but it is long enough to look like one"))
	f := mustOpen(t, dir)
	defer f.Close()
	rec, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs)+len(rec.Results)+len(rec.Idem) != 0 {
		t.Errorf("garbage WAL recovered state: %+v", rec)
	}
}

// Orphan snapshots — result bodies and tmp files with no live WAL
// record — move into the spare pool on open; live ones survive.
func TestFileOrphanSnapshotsSwept(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir)
	if err := f.PutResult("live", []byte(`{"live":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resDir := filepath.Join(dir, "results")
	orphan := filepath.Join(resDir, "deadbeefdeadbeef.json")
	tmp := filepath.Join(resDir, "0123456701234567.json.tmp")
	for _, p := range []string{orphan, tmp} {
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	f = mustOpen(t, dir)
	defer f.Close()
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived open", filepath.Base(p))
		}
	}
	livePath := filepath.Join(resDir, hashKey("live")+".json")
	if _, err := os.Stat(livePath); err != nil {
		t.Errorf("live snapshot swept: %v", err)
	}
	if spares, err := os.ReadDir(filepath.Join(dir, "spare")); err != nil || len(spares) != 2 {
		t.Errorf("spare pool after open = %d files (%v), want the 2 orphans", len(spares), err)
	}
}

// Rewriting the same records over and over must not grow the WAL
// without bound: open-time compaction keeps one frame per live record.
func TestFileCompactionBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir)
	rec := JobRecord{ID: "j000001", Seq: 1, State: "running", Seed: 2006, Chips: 2000}
	for i := 0; i < 200; i++ {
		if err := f.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fat, _ := os.Stat(filepath.Join(dir, walName))

	f = mustOpen(t, dir)
	defer f.Close()
	slim, _ := os.Stat(filepath.Join(dir, walName))
	if slim.Size() >= fat.Size()/10 {
		t.Errorf("compaction left %d bytes of a %d-byte WAL", slim.Size(), fat.Size())
	}
	recovered, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered.Jobs) != 1 || recovered.Jobs[0].State != "running" {
		t.Errorf("compaction lost state: %+v", recovered.Jobs)
	}
}

// The torn-write failpoint contract: an injected tear writes a strict
// prefix, wedges the store (no rollback — the "process" is dead), and
// the next open repairs the WAL back to the last good frame.
func TestFileFailpointTearWedgesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir)
	if err := f.PutJob(JobRecord{ID: "j000001", Seq: 1, State: "done"}); err != nil {
		t.Fatal(err)
	}

	f.failpoint = func(frame []byte) ([]byte, error) {
		return frame[:len(frame)/2], os.ErrClosed // tear: prefix + error
	}
	err := f.PutJob(JobRecord{ID: "j000002", Seq: 2, State: "queued"})
	if err == nil {
		t.Fatal("torn append reported success")
	}
	if IsTransient(err) {
		t.Error("torn append reported transient; the store is wedged, retry cannot help")
	}
	// Every subsequent write fails too: the store is wedged.
	if err := f.PutResult("k", []byte("{}")); err == nil {
		t.Fatal("wedged store accepted a write")
	}
	f.Close()

	// The tail really is torn on disk.
	data, _ := os.ReadFile(filepath.Join(dir, walName))
	n1 := binary.LittleEndian.Uint32(data)
	if int(n1)+8 >= len(data) {
		t.Fatalf("expected a torn tail after the first frame, WAL is %d bytes", len(data))
	}

	f = mustOpen(t, dir)
	defer f.Close()
	rec, rerr := f.Recover()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "j000001" {
		t.Errorf("recovery after tear = %+v, want only j000001", rec.Jobs)
	}
}

// A pure error injection (no bytes written) must roll back cleanly and
// report transient: the retry path, not the crash path.
func TestFileFailpointErrorRollsBack(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir)
	defer f.Close()
	if err := f.PutJob(JobRecord{ID: "j000001", Seq: 1, State: "done"}); err != nil {
		t.Fatal(err)
	}

	fail := true
	f.failpoint = func(frame []byte) ([]byte, error) {
		if fail {
			return nil, os.ErrDeadlineExceeded // transient: nothing written
		}
		return frame, nil
	}
	err := f.PutJob(JobRecord{ID: "j000002", Seq: 2, State: "queued"})
	if !IsTransient(err) {
		t.Fatalf("pure error injection: err = %v, want transient", err)
	}
	fail = false
	if err := f.PutJob(JobRecord{ID: "j000002", Seq: 2, State: "queued"}); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
}

// A wedged or a closed store refuses both snapshot puts before it
// writes: no result file appears and the live checkpoint file is not
// overwritten, so the directory stays what the WAL vouches for.
func TestFileRefusedPutsLeaveDirUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(t *testing.T, f *File)
	}{
		{"wedged", func(t *testing.T, f *File) {
			f.failpoint = func(frame []byte) ([]byte, error) {
				return frame[:len(frame)/2], os.ErrClosed
			}
			if err := f.PutJob(JobRecord{ID: "j000002", Seq: 2}); err == nil {
				t.Fatal("torn append reported success")
			}
		}},
		{"closed", func(t *testing.T, f *File) {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f := mustOpen(t, dir)
			defer f.Close()
			if err := f.PutCheckpoint("j000001", 64, []byte("ckpt-64")); err != nil {
				t.Fatal(err)
			}
			tc.stop(t, f)
			before := dirContents(t, dir)
			if err := f.PutResult("k", []byte("{}")); err == nil {
				t.Error("PutResult succeeded on a stopped store")
			}
			if err := f.PutCheckpoint("j000001", 128, []byte("ckpt-128")); err == nil {
				t.Error("PutCheckpoint succeeded on a stopped store")
			}
			if after := dirContents(t, dir); !maps.Equal(after, before) {
				t.Errorf("refused puts changed the directory:\n got %q\nwant %q", after, before)
			}
		})
	}
}

// dirContents maps every file under dir to its contents.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, dir)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// hashKey must produce distinct fixed-length names for the file layout.
func TestHashKeyShape(t *testing.T) {
	a, b := hashKey("study-a"), hashKey("study-b")
	if len(a) != 16 || len(b) != 16 {
		t.Errorf("hashKey lengths %d/%d, want 16", len(a), len(b))
	}
	if a == b {
		t.Error("distinct keys hashed identically")
	}
}
