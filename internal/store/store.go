// Package store is yieldd's durability layer: a pluggable persistent
// record of job lifecycles and results, so a crash or redeploy loses
// neither finished work nor in-flight builds, which the server rebuilds
// from their records. The server writes opaque bytes (JSON responses)
// and small typed records; the store guarantees they come back intact
// after a restart, or not at all — never corrupted. The per-job
// checkpoint API remains for data directories an older server wrote:
// the server writes no checkpoint and only deletes one left under a
// resumed job's id.
//
// File is the one implementation: a zero-dependency append-only WAL of
// CRC-framed records plus snapshot files, with fsync on every append,
// torn-write recovery on open, and a pool of spare files that retired
// snapshots join instead of being unlinked. Chaos wraps a Store with
// fault injection for crash-recovery testing.
package store

import (
	"errors"
	"fmt"
	"time"

	"yieldcache/internal/obs"
)

// JobRecord is one job's persisted lifecycle state. The server appends
// a full record at every transition (queued, running, done, failed);
// replay keeps the newest record per ID, so the WAL
// doubles as the job's history and its current state.
type JobRecord struct {
	// ID is the job id ("j000042"); stable across restarts, so the
	// X-Job-Id a client captured before a crash stays valid after it.
	ID string `json:"id"`
	// Seq is the registry sequence number behind the ID; recovery seeds
	// the registry counter past the largest recovered Seq.
	Seq int64 `json:"seq"`
	// Key is the canonical study key the job builds.
	Key string `json:"key"`
	// State is queued, running, done or failed.
	State string `json:"state"`

	// The resolved study parameters, enough to re-run the build.
	Seed        int64    `json:"seed"`
	Chips       int      `json:"chips"`
	ConsName    string   `json:"cons_name"`
	DelaySigmaK float64  `json:"delay_sigma_k"`
	LeakageMult float64  `json:"leakage_mult"`
	Schemes     []string `json:"schemes"`
	TimeoutMS   int64    `json:"timeout_ms"`

	// TargetCIWidth and Confidence persist a study's precision target,
	// so a crash-resumed build keeps stopping early at the same
	// interval width; zero means no target. EarlyStop records that the
	// target truncated the build before the full population.
	TargetCIWidth float64 `json:"target_ci_width,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	EarlyStop     bool    `json:"early_stop,omitempty"`

	// Kind distinguishes job flavours; empty means a study build, "sweep"
	// a design-space sweep. Spec carries a sweep's canonical resolved
	// request JSON, enough to replan and resume it after a crash (the
	// study fields above serve that role for studies).
	Kind string `json:"kind,omitempty"`
	Spec []byte `json:"spec,omitempty"`

	// Restarts counts how many times the job has been resumed after a
	// crash.
	Restarts int `json:"restarts,omitempty"`

	// QueueWaitMS accumulates admission-to-slot waits across restarts.
	QueueWaitMS   float64 `json:"queue_wait_ms,omitempty"`
	CreatedUnixMS int64   `json:"created_unix_ms"`

	// Terminal outcome of done/failed records.
	Class string `json:"class,omitempty"`
	Error string `json:"error,omitempty"`
}

// IdemRecord maps an Idempotency-Key to the request body it was first
// used with and the study that answered it, so a retried request can
// replay the recorded response and a reused key with a different body
// can be refused.
type IdemRecord struct {
	// Key is the client's Idempotency-Key header value.
	Key string `json:"key"`
	// BodyHash is the hex SHA-256 of the raw request body.
	BodyHash string `json:"body_hash"`
	// StudyKey is the canonical study key whose cached result replays.
	StudyKey string `json:"study_key"`
	// JobID is the job that produced (or will produce) the response.
	JobID string `json:"job_id"`
}

// Result is one persisted study response, key plus opaque JSON body.
type Result struct {
	Key  string
	Body []byte
}

// Recovered is everything a store holds after replay: the newest record
// per job (ascending Seq), results in write order (oldest first, so the
// FIFO cache rebuilds with its original eviction order), and the live
// idempotency records.
type Recovered struct {
	Jobs    []JobRecord
	Results []Result
	Idem    []IdemRecord
}

// Store is the durability interface yieldd talks to. Implementations
// must be safe for concurrent use. All data is opaque bytes: the store
// never interprets result bodies or checkpoint payloads.
type Store interface {
	// PutJob appends a job lifecycle record; the newest record per ID
	// wins on recovery.
	PutJob(rec JobRecord) error
	// PutResult persists a finished study response under its canonical
	// key; DeleteResult drops it (cache eviction).
	PutResult(key string, body []byte) error
	DeleteResult(key string) error
	// PutIdem persists an idempotency record; DeleteIdem expires it.
	PutIdem(rec IdemRecord) error
	DeleteIdem(key string) error
	// PutCheckpoint persists a build checkpoint for a job, replacing
	// any previous one; chips is the checkpoint's measured frontier.
	PutCheckpoint(jobID string, chips int, data []byte) error
	// Checkpoint returns a job's newest checkpoint, or ErrNoCheckpoint.
	Checkpoint(jobID string) (data []byte, chips int, err error)
	// DeleteCheckpoint drops a job's checkpoint (build finished).
	DeleteCheckpoint(jobID string) error
	// Recover replays the persisted state. The File store replays its
	// WAL once at Open; Recover hands the server the result.
	Recover() (*Recovered, error)
	// Close releases resources; the store is unusable afterwards.
	Close() error
}

// Error wraps a storage failure with its operation and whether a retry
// may help. It classifies as obs.ClassStorage in the error taxonomy.
type Error struct {
	// Op names the failing operation ("wal_append", "snapshot", …).
	Op string
	// Transient reports whether retrying the operation may succeed.
	Transient bool
	// Err is the underlying cause.
	Err error
}

// Error formats the failure.
func (e *Error) Error() string { return "store: " + e.Op + ": " + e.Err.Error() }

// Unwrap returns the underlying cause.
func (e *Error) Unwrap() error { return e.Err }

// ErrorClass stamps storage failures with their taxonomy class; see
// obs.ClassifyError.
func (e *Error) ErrorClass() obs.ErrClass { return obs.ClassStorage }

// ErrNoCheckpoint is returned by Checkpoint when a job has none.
var ErrNoCheckpoint = &Error{Op: "checkpoint", Err: fmt.Errorf("no checkpoint recorded")}

// IsTransient reports whether err is a storage error worth retrying.
func IsTransient(err error) bool {
	var se *Error
	return errors.As(err, &se) && se.Transient
}

// retryAttempts and retryBase bound Do's backoff: at most three tries,
// 5 ms then 25 ms apart — a worst case of ~30 ms added to the calling
// path, small next to a build but enough to ride out a slow fsync.
const (
	retryAttempts = 3
	retryBase     = 5 * time.Millisecond
)

// Do runs a storage operation with bounded retry-with-backoff for
// transient errors. Permanent errors (corruption, wedged store) return
// immediately. Every retry increments store_retries_total; a final
// failure increments store_errors_total{op=...}.
func Do(op string, fn func() error) error {
	delay := retryBase
	var err error
	for attempt := 1; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if !IsTransient(err) || attempt == retryAttempts {
			break
		}
		obs.C("store_retries_total").Inc()
		time.Sleep(delay)
		delay *= 5
	}
	obs.C(`store_errors_total{op="` + op + `"}`).Inc()
	return err
}
