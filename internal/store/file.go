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
	"strconv"
	"strings"
	"sync"
)

// File is the zero-dependency file-backed Store. Its data directory
// holds one append-only WAL plus snapshot files:
//
//	<dir>/wal.log            framed lifecycle records (jobs, idem keys,
//	                         result/checkpoint index)
//	<dir>/results/<h>.json   one snapshot file per cached result body
//	<dir>/checkpoints/<id>.<chips>.ckpt  newest build checkpoint per
//	                         job, named by its generation
//	<dir>/spare/<n>          the spare pool: files no record references,
//	                         kept to be overwritten by the next snapshot
//
// Every WAL frame is [uint32 len][uint32 CRC32-C][payload JSON],
// little-endian, fsynced before the append returns. Open replays the
// WAL, truncates it at the first torn or corrupt frame (the tail a
// crash mid-append leaves behind), returns snapshot and tmp files the
// replay no longer references to the spare pool, and compacts the live
// records into a fresh WAL.
//
// No write frees a file's blocks: on a filesystem that discards freed
// blocks, an unlink or a rename over an existing file took tens of
// milliseconds, a rename to a fresh name a tenth of one. A snapshot is
// written into a spare file from its first byte, without truncation,
// fsynced and renamed to its live name (a new file only when the pool
// is empty); its WAL record carries the body length, which replay
// reads, so a spare's older and longer tail is never read. Deleting a
// result or replacing a job's checkpoint generation renames the old
// file into the pool, after the WAL record that retires it. A crash
// never leaves a half-written body under a live name: the rename comes
// after the fsync, and a name a record vouches for is never written
// before that record is retired. The pool never holds more files than
// the peak number of live snapshot files (a checkpoint's old and new
// generations count twice at the instant both exist): it grows only
// when a live file retires, or when a put finds it empty.
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
	results   map[string]bool      // live result keys
	ckpts     map[string]ckptEntry // jobID -> live checkpoint generation

	// spares names the files in <dir>/spare, free for the next snapshot;
	// spareSeq is the next fresh name there.
	spares   []string
	spareSeq int

	// failpoint, when set, intercepts WAL payload writes — the chaos
	// harness uses it to tear a frame mid-write.
	failpoint func(payload []byte) ([]byte, error)
}

// ckptEntry is a job's live checkpoint: its generation, which names
// the file, and the body length.
type ckptEntry struct {
	chips, len int
}

// walRecord is the JSON payload of one WAL frame. T selects the kind;
// only that kind's fields are set.
type walRecord struct {
	T string `json:"t"` // job | res | resdel | idem | idemdel | ckpt | ckptdel

	Job *JobRecord `json:"job,omitempty"`

	// res / resdel / ckpt / ckptdel
	Key   string `json:"key,omitempty"`
	Chips int    `json:"chips,omitempty"`
	// Len is a res or ckpt body's length in bytes. WALs written before
	// the spare pool have none: the body is then the whole file, and a
	// checkpoint file is named <id>.ckpt.
	Len *int `json:"len,omitempty"`

	Idem *IdemRecord `json:"idem,omitempty"`
}

// wholeFile is the body length of a record without Len.
const wholeFile = -1

func recLen(rec walRecord) int {
	if rec.Len == nil {
		return wholeFile
	}
	return *rec.Len
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const walName = "wal.log"

// OpenFile opens (creating if needed) a file store rooted at dir,
// replaying and compacting its WAL. The returned store's Recover hands
// back the replayed state.
func OpenFile(dir string) (*File, error) {
	for _, sub := range []string{"", "results", "checkpoints", "spare"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, &Error{Op: "open", Err: err}
		}
	}
	f := &File{dir: dir, results: make(map[string]bool), ckpts: make(map[string]ckptEntry)}
	if err := f.loadPool(); err != nil {
		return nil, err
	}
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
	results := make(map[string]int) // key -> body length (body loaded after the scan)
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
			results[rec.Key] = recLen(rec)
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
			f.ckpts[rec.Key] = ckptEntry{chips: rec.Chips, len: recLen(rec)}
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
		n, live := results[key]
		if !live {
			continue
		}
		body, err := readSnapshot(f.resultPath(key), n)
		if err != nil {
			// The WAL said the result exists but its snapshot is gone,
			// short or unreadable (crash between WAL append and snapshot
			// rename cannot happen — snapshot lands first — but operators
			// can delete files). Drop the entry rather than fail recovery.
			delete(results, key)
			continue
		}
		f.results[key] = true
		rec.Results = append(rec.Results, Result{Key: key, Body: body})
	}
	for id, e := range f.ckpts {
		path := f.ckptPath(id, e.chips)
		if e.len == wholeFile {
			// A checkpoint from before the spare pool is <id>.ckpt, all
			// of it: move it to its generation's name, a fresh one (an
			// Open that crashed before compacting may have done so).
			os.Rename(filepath.Join(f.dir, "checkpoints", id+".ckpt"), path)
		}
		st, err := os.Stat(path)
		if err == nil && e.len == wholeFile {
			e.len = int(st.Size())
			f.ckpts[id] = e
		}
		if err != nil || !st.Mode().IsRegular() || e.len < 0 || st.Size() < int64(e.len) {
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

	// Return snapshot files the replay no longer references to the pool.
	live := make(map[string]bool, len(f.results)+len(f.ckpts))
	for key := range f.results {
		live[f.resultPath(key)] = true
	}
	for id, e := range f.ckpts {
		live[f.ckptPath(id, e.chips)] = true
	}
	f.sweep("results", ".json", live)
	f.sweep("checkpoints", ".ckpt", live)
	return nil
}

// sweep moves the files in <dir>/<sub> with the given extension that
// are not live, and stray tmp files of interrupted writes, into the
// spare pool. Best-effort: a file that fails to move stays an orphan,
// which wastes disk, nothing else.
func (f *File) sweep(sub, ext string, live map[string]bool) {
	entries, err := os.ReadDir(filepath.Join(f.dir, sub))
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(f.dir, sub, name)
		if e.Type().IsRegular() && (strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ext) && !live[path]) {
			f.toPool(path)
		}
	}
}

// loadPool lists the spare pool left by earlier runs and starts fresh
// spare names past every numeric one in it.
func (f *File) loadPool() error {
	entries, err := os.ReadDir(filepath.Join(f.dir, "spare"))
	if err != nil {
		return &Error{Op: "open", Err: err}
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f.spares = append(f.spares, e.Name())
		if n, err := strconv.Atoi(e.Name()); err == nil && n >= f.spareSeq {
			f.spareSeq = n + 1
		}
	}
	return nil
}

// toPool renames the file at path, if there is one, into the spare
// pool under a fresh name. Caller holds f.mu (or is Open).
func (f *File) toPool(path string) {
	name := strconv.Itoa(f.spareSeq)
	if os.Rename(path, filepath.Join(f.dir, "spare", name)) != nil {
		return
	}
	f.spareSeq++
	f.spares = append(f.spares, name)
}

// readSnapshot reads the first n bytes of the file at path, or all of
// it when n is wholeFile. A file shorter than n is an error.
func readSnapshot(path string, n int) ([]byte, error) {
	if n == wholeFile {
		return os.ReadFile(path)
	}
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	st, err := r.Stat()
	if err != nil {
		return nil, err
	}
	if n < 0 || st.Size() < int64(n) {
		return nil, fmt.Errorf("snapshot %s holds %d bytes, want %d", filepath.Base(path), st.Size(), n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
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
		n := len(r.Body)
		if err := write(walRecord{T: "res", Key: r.Key, Len: &n}); err != nil {
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
	for id, e := range f.ckpts {
		if err := write(walRecord{T: "ckpt", Key: id, Chips: e.chips, Len: &e.len}); err != nil {
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

// writeSnapshot puts body under path: a spare file (a new tmp file
// when the pool is empty) is overwritten from its first byte, fsynced
// and renamed to path. A file already at path, which no record may
// vouch for, moves into the pool first, so the rename replaces
// nothing. Caller holds f.mu.
func (f *File) writeSnapshot(op, path string, body []byte) error {
	f.toPool(path)
	var src string
	var w *os.File
	var err error
	if n := len(f.spares); n > 0 {
		src = filepath.Join(f.dir, "spare", f.spares[n-1])
		f.spares = f.spares[:n-1]
		w, err = os.OpenFile(src, os.O_WRONLY, 0)
	} else {
		src = path + ".tmp"
		w, err = os.OpenFile(src, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		f.toPool(src)
		return &Error{Op: op, Transient: true, Err: err}
	}
	if _, err = w.Write(body); err == nil {
		err = w.Sync()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(src, path)
	}
	if err != nil {
		f.toPool(src)
		return &Error{Op: op, Transient: true, Err: err}
	}
	return nil
}

func (f *File) resultPath(key string) string {
	return filepath.Join(f.dir, "results", hashKey(key)+".json")
}

func (f *File) ckptPath(jobID string, chips int) string {
	return filepath.Join(f.dir, "checkpoints", jobID+"."+strconv.Itoa(chips)+".ckpt")
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
// which the next Open returns to the pool. A re-put of a live key
// retires the live entry first, so its file is never rewritten while a
// record vouches for its length.
func (f *File) PutResult(key string, body []byte) error {
	const op = "put_result"
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.refuseLocked(op); err != nil {
		return err
	}
	if f.results[key] {
		if err := f.deleteResultLocked(op, key); err != nil {
			return err
		}
	}
	n := len(body)
	if err := f.putSnapshotLocked(op, f.resultPath(key), body, walRecord{T: "res", Key: key, Len: &n}); err != nil {
		return err
	}
	f.results[key] = true
	return nil
}

// putSnapshotLocked writes a snapshot file and then appends the WAL
// record that makes it live; if the append fails the file goes back to
// the pool. Its callers check refuseLocked first, so a closed or wedged
// store writes neither and never leaves a snapshot its WAL does not
// vouch for. Caller holds f.mu across both writes, so Close cannot
// land between the check and the snapshot.
func (f *File) putSnapshotLocked(op, path string, body []byte, rec walRecord) error {
	if err := f.writeSnapshot(op, path, body); err != nil {
		return err
	}
	if err := f.appendLocked(op, rec); err != nil {
		f.toPool(path)
		return err
	}
	return nil
}

// DeleteResult logs the deletion and moves the snapshot into the pool.
func (f *File) DeleteResult(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.deleteResultLocked("delete_result", key)
}

func (f *File) deleteResultLocked(op, key string) error {
	if err := f.appendLocked(op, walRecord{T: "resdel", Key: key}); err != nil {
		return err
	}
	delete(f.results, key)
	f.toPool(f.resultPath(key))
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

// PutCheckpoint snapshots the checkpoint payload as a new generation
// <id>.<chips>.ckpt, then logs its frontier; the previous generation
// moves into the pool only after that record lands. Only the newest
// checkpoint per job is kept. A put at the live generation's own
// frontier retires it first, as PutResult does a live key.
func (f *File) PutCheckpoint(jobID string, chips int, data []byte) error {
	const op = "put_checkpoint"
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.refuseLocked(op); err != nil {
		return err
	}
	prev, had := f.ckpts[jobID]
	if had && prev.chips == chips {
		if err := f.deleteCheckpointLocked(op, jobID); err != nil {
			return err
		}
		had = false
	}
	n := len(data)
	if err := f.putSnapshotLocked(op, f.ckptPath(jobID, chips), data,
		walRecord{T: "ckpt", Key: jobID, Chips: chips, Len: &n}); err != nil {
		return err
	}
	f.ckpts[jobID] = ckptEntry{chips: chips, len: n}
	if had {
		f.toPool(f.ckptPath(jobID, prev.chips))
	}
	return nil
}

// Checkpoint loads a job's newest checkpoint payload. It reads under
// f.mu: a later put may move the file into the pool and overwrite it.
func (f *File) Checkpoint(jobID string) ([]byte, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.ckpts[jobID]
	if !ok {
		return nil, 0, ErrNoCheckpoint
	}
	data, err := readSnapshot(f.ckptPath(jobID, e.chips), e.len)
	if err != nil {
		return nil, 0, &Error{Op: "checkpoint", Err: err}
	}
	return data, e.chips, nil
}

// DeleteCheckpoint logs the removal and moves the last generation into
// the pool.
func (f *File) DeleteCheckpoint(jobID string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.deleteCheckpointLocked("delete_checkpoint", jobID)
}

func (f *File) deleteCheckpointLocked(op, jobID string) error {
	if err := f.appendLocked(op, walRecord{T: "ckptdel", Key: jobID}); err != nil {
		return err
	}
	if e, ok := f.ckpts[jobID]; ok {
		delete(f.ckpts, jobID)
		f.toPool(f.ckptPath(jobID, e.chips))
	}
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
