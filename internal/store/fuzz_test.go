package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenFile feeds arbitrary bytes to the File store as its WAL,
// beside snapshot files for the seed WAL's result and checkpoint under
// both checkpoint names (<id>.<chips>.ckpt, and <id>.ckpt from before
// the spare pool) and a spare. Opening must never panic or hang, and a
// store that opens must recover, accept a job, close, and reopen
// holding that job: whatever replay kept or truncated, the WAL it
// leaves takes a clean append.
func FuzzOpenFile(f *testing.F) {
	valid := seedWAL(f)
	// TestFileTornTailTruncated's tear: a header promising 64 payload
	// bytes, then only 5.
	torn := binary.LittleEndian.AppendUint32(nil, 64)
	torn = append(torn, 0, 0, 0, 0)
	torn = append(torn, "hello"...)
	// TestFileCorruptFrameStopsReplay's damage: one flipped payload
	// byte in the second frame.
	corrupt := append([]byte(nil), valid...)
	corrupt[8+int(binary.LittleEndian.Uint32(corrupt))+8] ^= 0x01
	for _, seed := range [][]byte{
		valid,
		append(append([]byte(nil), valid...), torn...),
		corrupt,
		// TestFileGarbageWALStartsEmpty's WAL.
		[]byte("this is not a WAL at all, but it is long enough to look like one"),
		nil,
		// Records without a length, as WALs before the spare pool hold.
		frames(f, walRecord{T: "res", Key: "key1"}, walRecord{T: "ckpt", Key: "j000002", Chips: 8}),
		// Lengths past the end of the file, negative, and the whole-file
		// marker written out.
		frames(f, walRecord{T: "res", Key: "key1", Len: ptr(1 << 40)}, walRecord{T: "ckpt", Key: "j000002", Chips: 8, Len: ptr(-2)}),
		frames(f, walRecord{T: "res", Key: "key1", Len: ptr(wholeFile)}, walRecord{T: "ckpt", Key: "j000002", Chips: 8, Len: ptr(wholeFile)}),
		frames(f, walRecord{T: "res", Key: "key1", Len: ptr(0)}, walRecord{T: "ckpt", Key: "j000002", Chips: 8, Len: ptr(3)},
			walRecord{T: "ckpt", Key: "j000002", Chips: 8, Len: ptr(4)}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		for _, sub := range []string{"results", "checkpoints", "spare"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, body := range map[string]string{
			walName: string(wal),
			filepath.Join("results", hashKey("key1")+".json"): `{"ok":true}`,
			filepath.Join("checkpoints", "j000002.8.ckpt"):    "checkpoint",
			filepath.Join("checkpoints", "j000002.ckpt"):      "checkpoint",
			filepath.Join("spare", "7"):                       "spare",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := OpenFile(dir)
		if err != nil {
			return
		}
		if _, err := st.Recover(); err != nil {
			t.Fatalf("Recover after a clean open: %v", err)
		}
		probe := JobRecord{ID: "jfuzz", Seq: 1 << 40, Key: "fuzz", State: "done"}
		if err := st.PutJob(probe); err != nil {
			t.Fatalf("PutJob after a clean open: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st, err = OpenFile(dir)
		if err != nil {
			t.Fatalf("reopen after PutJob: %v", err)
		}
		defer st.Close()
		rec, err := st.Recover()
		if err != nil {
			t.Fatalf("Recover after reopen: %v", err)
		}
		for _, j := range rec.Jobs {
			if j.ID == probe.ID {
				if !reflect.DeepEqual(j, probe) {
					t.Fatalf("reopened store holds %+v, want %+v", j, probe)
				}
				return
			}
		}
		t.Fatalf("reopened store lost the job put before Close: %+v", rec.Jobs)
	})
}

// seedWAL returns the WAL of a store that holds two jobs, a result,
// an idempotency record and a checkpoint.
func seedWAL(f *testing.F) []byte {
	dir := f.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, put := range []func() error{
		func() error { return st.PutJob(JobRecord{ID: "j000001", Seq: 1, State: "done"}) },
		func() error { return st.PutJob(JobRecord{ID: "j000002", Seq: 2, State: "running"}) },
		func() error { return st.PutResult("key1", []byte(`{"ok":true}`)) },
		func() error {
			return st.PutIdem(IdemRecord{Key: "idem1", BodyHash: "h", StudyKey: "key1", JobID: "j000001"})
		},
		func() error { return st.PutCheckpoint("j000002", 8, []byte("checkpoint")) },
	} {
		if err := put(); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	return wal
}

// frames encodes records as consecutive WAL frames.
func frames(tb testing.TB, recs ...walRecord) []byte {
	var wal []byte
	for _, rec := range recs {
		frame, err := encodeFrame(rec)
		if err != nil {
			tb.Fatal(err)
		}
		wal = append(wal, frame...)
	}
	return wal
}

func ptr(n int) *int { return &n }
