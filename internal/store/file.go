package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// File is the zero-dependency file-backed Store. Its data directory
// holds one append-only WAL plus snapshot files:
//
//	<dir>/wal.log            framed lifecycle records (jobs, idem keys,
//	                         result/checkpoint index)
//	<dir>/results/<h>.json   one snapshot file per cached result body
//	<dir>/checkpoints/<id>.ckpt  newest build checkpoint per job
//
// Every WAL frame is [uint32 len][uint32 CRC32-C][payload JSON],
// little-endian, fsynced before the append returns. Open replays the
// WAL, truncates it at the first torn or corrupt frame (the tail a
// crash mid-append leaves behind), removes snapshot files the replay
// no longer references, and compacts the live records into a fresh
// WAL. Snapshot files are written tmp+rename so a crash never leaves a
// half-written body under a live name.
//
// A failed append wedges the store: the WAL tail is in an unknown
// state, so File repairs it by truncating back to the last good offset
// and, if even that fails, refuses further writes (crash semantics —
// better no durability than silent corruption).
type File struct {
	dir string

	mu     sync.Mutex
	wal    *os.File
	walLen int64 // offset of the next frame; rollback point on failure
	closed bool
	wedged error

	// Replay state captured at Open, returned by Recover.
	recovered *Recovered
	ckpts     map[string]int // jobID -> checkpointed chips

	// failpoint, when set, intercepts WAL payload writes — the chaos
	// harness uses it to tear a frame mid-write.
	failpoint func(payload []byte) ([]byte, error)
}

// walRecord is the JSON payload of one WAL frame. T selects the kind;
// only that kind's fields are set.
type walRecord struct {
	T string `json:"t"` // job | res | resdel | idem | idemdel | ckpt | ckptdel

	Job *JobRecord `json:"job,omitempty"`

	// res / resdel / ckpt / ckptdel
	Key   string `json:"key,omitempty"`
	Chips int    `json:"chips,omitempty"`

	Idem *IdemRecord `json:"idem,omitempty"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const walName = "wal.log"

// OpenFile opens (creating if needed) a file store rooted at dir,
// replaying and compacting its WAL. The returned store's Recover hands
// back the replayed state.
func OpenFile(dir string) (*File, error) {
	for _, sub := range []string{"", "results", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, &Error{Op: "open", Err: err}
		}
	}
	f := &File{dir: dir, ckpts: make(map[string]int)}
	if err := f.replay(); err != nil {
		return nil, err
	}
	if err := f.compact(); err != nil {
		return nil, err
	}
	return f, nil
}

// replay scans the WAL, truncating at the first torn or corrupt frame,
// and materialises the live state into f.recovered / f.ckpts.
func (f *File) replay() error {
	path := filepath.Join(f.dir, walName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return &Error{Op: "wal_read", Err: err}
	}

	jobs := make(map[string]JobRecord)
	results := make(map[string][]byte) // key -> body (loaded from snapshot)
	var resOrder []string
	idem := make(map[string]IdemRecord)
	var idemOrder []string

	good := int64(0)
	for off := 0; off+8 <= len(data); {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		end := off + 8 + int(n)
		if n == 0 || n > 1<<26 || end > len(data) {
			break // torn tail: length header or payload incomplete
		}
		payload := data[off+8 : end]
		if crc32.Checksum(payload, crcTable) != sum {
			break // corrupt frame: stop replay here, truncate below
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // CRC passed but payload unreadable: treat as corrupt
		}
		switch rec.T {
		case "job":
			if rec.Job != nil {
				jobs[rec.Job.ID] = *rec.Job
			}
		case "res":
			// A re-put (even after a delete) moves the key to the back of
			// the FIFO order: scrub any earlier occurrence, then append.
			for i, k := range resOrder {
				if k == rec.Key {
					resOrder = append(resOrder[:i], resOrder[i+1:]...)
					break
				}
			}
			resOrder = append(resOrder, rec.Key)
			results[rec.Key] = nil // body loaded after the scan
		case "resdel":
			delete(results, rec.Key)
		case "idem":
			if rec.Idem != nil {
				for i, k := range idemOrder {
					if k == rec.Idem.Key {
						idemOrder = append(idemOrder[:i], idemOrder[i+1:]...)
						break
					}
				}
				idemOrder = append(idemOrder, rec.Idem.Key)
				idem[rec.Idem.Key] = *rec.Idem
			}
		case "idemdel":
			delete(idem, rec.Key)
		case "ckpt":
			f.ckpts[rec.Key] = rec.Chips
		case "ckptdel":
			delete(f.ckpts, rec.Key)
		}
		off = end
		good = int64(end)
	}
	if good < int64(len(data)) {
		// Torn or corrupt tail: truncate the WAL back to the last good
		// frame so the next append starts from a clean boundary.
		if err := os.Truncate(path, good); err != nil {
			return &Error{Op: "wal_truncate", Err: err}
		}
	}

	rec := &Recovered{}
	for _, key := range resOrder {
		if _, live := results[key]; !live {
			continue
		}
		body, err := os.ReadFile(f.resultPath(key))
		if err != nil {
			// The WAL said the result exists but its snapshot is gone or
			// unreadable (crash between WAL append and snapshot rename
			// cannot happen — snapshot lands first — but operators can
			// delete files). Drop the entry rather than fail recovery.
			delete(results, key)
			continue
		}
		rec.Results = append(rec.Results, Result{Key: key, Body: body})
	}
	for id := range f.ckpts {
		if _, err := os.Stat(f.ckptPath(id)); err != nil {
			delete(f.ckpts, id)
		}
	}
	for _, rj := range jobs {
		rec.Jobs = append(rec.Jobs, rj)
	}
	sortJobs(rec.Jobs)
	for _, k := range idemOrder {
		if r, ok := idem[k]; ok {
			rec.Idem = append(rec.Idem, r)
		}
	}
	f.recovered = rec

	// Sweep snapshot files the replay no longer references.
	liveRes := make(map[string]bool, len(results))
	for key := range results {
		liveRes[hashKey(key)] = true
	}
	f.sweep("results", ".json", func(name string) bool { return liveRes[name] })
	f.sweep("checkpoints", ".ckpt", func(name string) bool {
		_, ok := f.ckpts[name]
		return ok
	})
	return nil
}

// sweep removes files in <dir>/<sub> with the given extension whose
// base name fails the live predicate. Best-effort: sweep errors are
// ignored — an orphan snapshot wastes disk, nothing else.
func (f *File) sweep(sub, ext string, live func(base string) bool) {
	entries, err := os.ReadDir(filepath.Join(f.dir, sub))
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ext) {
			// Stray tmp files from interrupted writes are orphans too.
			if strings.HasSuffix(name, ".tmp") {
				os.Remove(filepath.Join(f.dir, sub, name))
			}
			continue
		}
		base := strings.TrimSuffix(name, ext)
		if !live(base) {
			os.Remove(filepath.Join(f.dir, sub, name))
		}
	}
}

// compact rewrites the live state as a minimal WAL (one frame per live
// record) via tmp+rename, bounding WAL growth across restarts.
func (f *File) compact() error {
	tmp := filepath.Join(f.dir, walName+".tmp")
	w, err := os.Create(tmp)
	if err != nil {
		return &Error{Op: "compact", Err: err}
	}
	write := func(rec walRecord) error {
		frame, err := encodeFrame(rec)
		if err != nil {
			return err
		}
		_, err = w.Write(frame)
		return err
	}
	for i := range f.recovered.Jobs {
		if err := write(walRecord{T: "job", Job: &f.recovered.Jobs[i]}); err != nil {
			w.Close()
			return &Error{Op: "compact", Err: err}
		}
	}
	for _, r := range f.recovered.Results {
		if err := write(walRecord{T: "res", Key: r.Key}); err != nil {
			w.Close()
			return &Error{Op: "compact", Err: err}
		}
	}
	for i := range f.recovered.Idem {
		if err := write(walRecord{T: "idem", Idem: &f.recovered.Idem[i]}); err != nil {
			w.Close()
			return &Error{Op: "compact", Err: err}
		}
	}
	for id, chips := range f.ckpts {
		if err := write(walRecord{T: "ckpt", Key: id, Chips: chips}); err != nil {
			w.Close()
			return &Error{Op: "compact", Err: err}
		}
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return &Error{Op: "compact", Err: err}
	}
	if err := w.Close(); err != nil {
		return &Error{Op: "compact", Err: err}
	}
	path := filepath.Join(f.dir, walName)
	if err := os.Rename(tmp, path); err != nil {
		return &Error{Op: "compact", Err: err}
	}
	wal, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return &Error{Op: "wal_open", Err: err}
	}
	st, err := wal.Stat()
	if err != nil {
		wal.Close()
		return &Error{Op: "wal_open", Err: err}
	}
	f.wal = wal
	f.walLen = st.Size()
	return nil
}

// errClosed is the cause wrapped by every operation on a closed store.
var errClosed = errors.New("store is closed")

// refuseLocked returns the error a closed or wedged store answers every
// write with, or nil. Caller holds f.mu.
func (f *File) refuseLocked(op string) error {
	if f.closed {
		return &Error{Op: op, Err: errClosed}
	}
	if f.wedged != nil {
		return &Error{Op: op, Err: fmt.Errorf("store wedged: %w", f.wedged)}
	}
	return nil
}

// encodeFrame frames one record: [len][crc][payload].
func encodeFrame(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[8:], payload)
	return frame, nil
}

// append frames rec, writes it through the failpoint (if armed) and
// fsyncs. On any failure it rolls the WAL back to the last good frame
// boundary; if the rollback fails too the store wedges.
func (f *File) append(op string, rec walRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appendLocked(op, rec)
}

func (f *File) appendLocked(op string, rec walRecord) error {
	if err := f.refuseLocked(op); err != nil {
		return err
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return &Error{Op: op, Err: err}
	}
	if f.failpoint != nil {
		var out []byte
		out, err = f.failpoint(frame)
		if err != nil && out != nil {
			// Torn write: a prefix of the frame reaches the file and the
			// process "dies" — wedge without rollback, exactly the state a
			// crash mid-append leaves for the next Open to repair.
			f.wal.Write(out)
			f.wal.Sync()
			f.wedged = err
			return &Error{Op: op, Err: fmt.Errorf("torn write injected: %w", err)}
		}
		if err == nil {
			frame = out
			_, err = f.wal.Write(frame)
			if err == nil {
				err = f.wal.Sync()
			}
		}
	} else {
		_, err = f.wal.Write(frame)
		if err == nil {
			err = f.wal.Sync()
		}
	}
	if err != nil {
		// Roll back to the pre-append offset so the WAL ends on a frame
		// boundary again. If that fails the tail state is unknown: wedge.
		if terr := f.wal.Truncate(f.walLen); terr != nil {
			f.wedged = terr
			return &Error{Op: op, Err: fmt.Errorf("%w (rollback failed: %v)", err, terr)}
		}
		if _, serr := f.wal.Seek(f.walLen, io.SeekStart); serr != nil {
			f.wedged = serr
		}
		return &Error{Op: op, Transient: true, Err: err}
	}
	f.walLen += int64(len(frame))
	return nil
}

// writeSnapshot writes body to path atomically: tmp file in the same
// directory, fsync, rename.
func (f *File) writeSnapshot(op, path string, body []byte) error {
	tmp := path + ".tmp"
	w, err := os.Create(tmp)
	if err != nil {
		return &Error{Op: op, Transient: true, Err: err}
	}
	if _, err = w.Write(body); err == nil {
		err = w.Sync()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return &Error{Op: op, Transient: true, Err: err}
	}
	return nil
}

func (f *File) resultPath(key string) string {
	return filepath.Join(f.dir, "results", hashKey(key)+".json")
}

func (f *File) ckptPath(jobID string) string {
	return filepath.Join(f.dir, "checkpoints", jobID+".ckpt")
}

// hashKey maps an arbitrary study key to a fixed-length file name.
func hashKey(key string) string {
	return fmt.Sprintf("%08x%08x",
		crc32.Checksum([]byte(key), crcTable),
		crc32.ChecksumIEEE([]byte(key)))
}

// PutJob appends the job's newest lifecycle record to the WAL.
func (f *File) PutJob(rec JobRecord) error {
	return f.append("put_job", walRecord{T: "job", Job: &rec})
}

// PutResult writes the body snapshot first, then the WAL entry that
// makes it live — a crash between the two leaves only an orphan file,
// which the next Open sweeps.
func (f *File) PutResult(key string, body []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.putSnapshotLocked("put_result", f.resultPath(key), body, walRecord{T: "res", Key: key})
}

// putSnapshotLocked writes a snapshot file and then appends the WAL
// record that makes it live. A closed or wedged store writes neither,
// so it never leaves a snapshot its WAL does not vouch for. Caller
// holds f.mu across both writes, so Close cannot land between the
// check and the snapshot.
func (f *File) putSnapshotLocked(op, path string, body []byte, rec walRecord) error {
	if err := f.refuseLocked(op); err != nil {
		return err
	}
	if err := f.writeSnapshot(op, path, body); err != nil {
		return err
	}
	return f.appendLocked(op, rec)
}

// DeleteResult logs the deletion and removes the snapshot.
func (f *File) DeleteResult(key string) error {
	if err := f.append("delete_result", walRecord{T: "resdel", Key: key}); err != nil {
		return err
	}
	os.Remove(f.resultPath(key))
	return nil
}

// PutIdem appends an idempotency record.
func (f *File) PutIdem(rec IdemRecord) error {
	return f.append("put_idem", walRecord{T: "idem", Idem: &rec})
}

// DeleteIdem logs an idempotency-key expiry.
func (f *File) DeleteIdem(key string) error {
	return f.append("delete_idem", walRecord{T: "idemdel", Key: key})
}

// PutCheckpoint snapshots the checkpoint payload, then logs its
// frontier. Only the newest checkpoint per job is kept.
func (f *File) PutCheckpoint(jobID string, chips int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.putSnapshotLocked("put_checkpoint", f.ckptPath(jobID), data,
		walRecord{T: "ckpt", Key: jobID, Chips: chips}); err != nil {
		return err
	}
	f.ckpts[jobID] = chips
	return nil
}

// Checkpoint loads a job's newest checkpoint payload.
func (f *File) Checkpoint(jobID string) ([]byte, int, error) {
	f.mu.Lock()
	chips, ok := f.ckpts[jobID]
	f.mu.Unlock()
	if !ok {
		return nil, 0, ErrNoCheckpoint
	}
	data, err := os.ReadFile(f.ckptPath(jobID))
	if err != nil {
		return nil, 0, &Error{Op: "checkpoint", Err: err}
	}
	return data, chips, nil
}

// DeleteCheckpoint logs the removal and deletes the snapshot.
func (f *File) DeleteCheckpoint(jobID string) error {
	f.mu.Lock()
	err := f.appendLocked("delete_checkpoint", walRecord{T: "ckptdel", Key: jobID})
	if err == nil {
		delete(f.ckpts, jobID)
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	os.Remove(f.ckptPath(jobID))
	return nil
}

// Recover returns the state replayed at Open.
func (f *File) Recover() (*Recovered, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, &Error{Op: "recover", Err: errClosed}
	}
	return f.recovered, nil
}

// Close syncs and closes the WAL.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.wal != nil {
		f.wal.Sync()
		return f.wal.Close()
	}
	return nil
}

// sortJobs orders job records by ascending Seq.
func sortJobs(jobs []JobRecord) {
	for i := 1; i < len(jobs); i++ {
		for j := i; j > 0 && jobs[j].Seq < jobs[j-1].Seq; j-- {
			jobs[j], jobs[j-1] = jobs[j-1], jobs[j]
		}
	}
}
