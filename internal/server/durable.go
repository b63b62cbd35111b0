package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
	"yieldcache/internal/store"
)

// maxIdemKeyLen bounds the Idempotency-Key header so a hostile client
// cannot stuff arbitrary blobs into the idempotency map and the WAL.
const maxIdemKeyLen = 256

// storeDo runs one storage operation through the bounded-retry helper
// and logs (but never propagates) a final failure: storage errors
// degrade durability, they do not fail requests.
func (s *Server) storeDo(op string, fn func() error) {
	if s.store == nil {
		return
	}
	if err := store.Do(op, fn); err != nil {
		s.log.Warn("store operation failed; durability degraded", "op", op, "error", err)
	}
}

// persistJob appends the job's current lifecycle state to the store.
// The non-synchronised job fields read here (started, class, errMsg)
// are only ever written by the goroutine calling persistJob, so the
// reads are race-free.
func (s *Server) persistJob(j *job, k jobKind, state string) {
	if s.store == nil {
		return
	}
	rec := k.record()
	rec.ID, rec.Seq, rec.Key, rec.State = j.id, j.seq, j.key, state
	rec.EarlyStop = j.earlyStop.Load()
	rec.Restarts = j.restarts
	rec.QueueWaitMS = j.priorWaitMS
	rec.CreatedUnixMS = j.created.UnixMilli()
	if state != jobQueued && !j.started.IsZero() {
		rec.QueueWaitMS = j.priorWaitMS + j.started.Sub(j.admitted).Seconds()*1e3
	}
	if state == jobDone || state == jobFailed {
		rec.Class = string(j.class)
		rec.Error = j.errMsg
	}
	s.storeDo("put_job", func() error { return s.store.PutJob(rec) })
}

// persistOutcome records a build's terminal state: the final job
// record, the cached result body, evicted results, expired idempotency
// keys (including those bound to a failed build), and the checkpoint
// that is no longer needed.
func (s *Server) persistOutcome(j *job, k jobKind, c *call, cached bool, evicted, expiredIdem []string) {
	if s.store == nil {
		return
	}
	state := jobDone
	if c.err != nil {
		state = jobFailed
	}
	s.persistJob(j, k, state)
	if cached {
		v, _ := c.res.result()
		if body, err := json.Marshal(v); err == nil {
			s.storeDo("put_result", func() error { return s.store.PutResult(j.key, body) })
		}
	}
	for _, old := range evicted {
		old := old
		s.storeDo("delete_result", func() error { return s.store.DeleteResult(old) })
	}
	for _, ik := range expiredIdem {
		ik := ik
		s.storeDo("delete_idem", func() error { return s.store.DeleteIdem(ik) })
	}
	if s.cfg.CheckpointInterval > 0 || k.resuming() {
		s.storeDo("delete_checkpoint", func() error { return s.store.DeleteCheckpoint(j.id) })
	}
}

// checkpointSink returns the build-checkpoint callback for one job:
// encode, persist with retry, and announce on the event bus. A sink
// error skips that checkpoint; the build carries on.
//
// The sink self-clocks against the storage it writes to: a checkpoint
// snapshot grows with the build (it holds every measured chip), and on
// slow disks persisting one can take far longer than the configured
// interval. Each persisted checkpoint therefore postpones the next by
// its own cost, so slow storage degrades checkpoint granularity —
// bounded at a ~50% duty cycle of the publishing worker — instead of
// starving the build itself.
func (s *Server) checkpointSink(j *job) func(*yieldcache.BuildCheckpoint) error {
	jobID := j.id
	var wrote time.Time    // when the last persisted checkpoint finished
	var cost time.Duration // how long it took to persist
	return func(bc *yieldcache.BuildCheckpoint) error {
		if !wrote.IsZero() && time.Since(wrote) < cost {
			return nil // still paying for the last write: skip this offer
		}
		var buf bytes.Buffer
		if err := bc.Encode(&buf); err != nil {
			return err
		}
		t0 := time.Now()
		if err := store.Do("put_checkpoint", func() error {
			return s.store.PutCheckpoint(jobID, bc.Done, buf.Bytes())
		}); err != nil {
			s.log.Warn("checkpoint persist failed", "job", jobID, "chips", bc.Done, "error", err)
			return err
		}
		wrote = time.Now()
		cost = wrote.Sub(t0)
		s.bus.Publish(obs.Event{Type: obs.EventJobCheckpoint, Job: jobID,
			Done: int64(bc.Done), Total: int64(bc.N)})
		return nil
	}
}

// recordIdem binds an Idempotency-Key to the study that answers it, in
// memory and (when a store is attached) durably. No-op without a key.
// Idempotency works store-less too — it then lasts one process
// lifetime, like the rest of the in-memory state.
func (s *Server) recordIdem(idemKey, bodyHash, studyKey, jobID string) {
	if idemKey == "" {
		return
	}
	rec := store.IdemRecord{Key: idemKey, BodyHash: bodyHash, StudyKey: studyKey, JobID: jobID}
	s.mu.Lock()
	s.idem[idemKey] = rec
	s.idemByKey[studyKey] = append(s.idemByKey[studyKey], idemKey)
	s.mu.Unlock()
	s.storeDo("put_idem", func() error { return s.store.PutIdem(rec) })
}

// idemLookupLocked resolves a recorded Idempotency-Key while s.mu is
// held. When it fully answers the request — body-hash conflict (409),
// replay of the recorded response, or coalescing onto the in-flight
// build — it unlocks and returns true. Otherwise the stale record (if
// any) is expired and the caller proceeds with the lock still held.
func (s *Server) idemLookupLocked(w http.ResponseWriter, r *http.Request, idemKey, bodyHash string, k jobKind) bool {
	rec, ok := s.idem[idemKey]
	if !ok {
		return false
	}
	if rec.BodyHash != bodyHash {
		s.mu.Unlock()
		obs.C("server_idempotency_conflicts_total").Inc()
		s.log.Warn("idempotency key reused with different body", "job", rec.JobID)
		writeErrorClass(w, http.StatusConflict, obs.ClassValidation,
			"Idempotency-Key was already used with a different request body")
		return true
	}
	if e := s.cache[rec.StudyKey]; e != nil {
		s.mu.Unlock()
		obs.C("server_idempotent_replays_total").Inc()
		if j, found := s.jobsReg.lookupKey(rec.StudyKey); found {
			j.cacheHits.Add(1)
		}
		w.Header().Set("Idempotency-Replayed", "true")
		s.log.Debug(k.noun()+" replayed for idempotency key", "job", rec.JobID, "key", rec.StudyKey)
		writeHit(w, k.hitBody(e), rec.JobID)
		return true
	}
	if c, flying := s.inflight[rec.StudyKey]; flying {
		s.mu.Unlock()
		obs.C("server_" + k.noun() + "_coalesced_total").Inc()
		c.job.coalesced.Add(1)
		s.await(w, r, c, k)
		return true
	}
	// The record outlived its result: it was bound just as the build
	// failed or the entry was evicted. Forget it and retry fresh.
	delete(s.idem, idemKey)
	go s.storeDo("delete_idem", func() error { return s.store.DeleteIdem(idemKey) })
	return false
}

// expireIdemLocked drops every idempotency record bound to an evicted
// or failed key, returning the expired keys so the caller can delete
// them from the store after releasing s.mu. Caller holds s.mu.
func (s *Server) expireIdemLocked(studyKey string) []string {
	keys := s.idemByKey[studyKey]
	delete(s.idemByKey, studyKey)
	expired := keys[:0]
	for _, ik := range keys {
		if _, ok := s.idem[ik]; ok {
			delete(s.idem, ik)
			expired = append(expired, ik)
		}
	}
	return expired
}

// paramsFromRecord rebuilds the canonical study parameters from a
// persisted job record, so a resumed build runs exactly the study the
// crashed server admitted.
func (s *Server) paramsFromRecord(rec store.JobRecord) params {
	p := params{
		seed:       rec.Seed,
		chips:      rec.Chips,
		cons:       yieldcache.Constraints{Name: rec.ConsName, DelaySigmaK: rec.DelaySigmaK, LeakageMult: rec.LeakageMult},
		schemes:    rec.Schemes,
		timeout:    time.Duration(rec.TimeoutMS) * time.Millisecond,
		targetCI:   rec.TargetCIWidth,
		confidence: rec.Confidence,
	}
	if p.timeout <= 0 {
		p.timeout = s.cfg.DefaultTimeout
	}
	if p.confidence <= 0 {
		// Records from before the estimation layer carry no confidence.
		p.confidence = 0.95
	}
	return p
}

// recoverFromStore replays the store into the server's in-memory state:
// the result cache (in original FIFO order), live idempotency records,
// finished-job history, and — the point of the exercise — re-admits
// every job that was queued or running when the last process died,
// resuming each from its newest readable checkpoint. Runs once from
// New, before the server serves any request.
func (s *Server) recoverFromStore() {
	if s.store == nil {
		return
	}
	rec, err := s.store.Recover()
	if err != nil {
		s.log.Error("store recovery failed; starting empty", "error", err)
		return
	}

	if s.cfg.CacheEntries > 0 {
		start := 0
		if len(rec.Results) > s.cfg.CacheEntries {
			start = len(rec.Results) - s.cfg.CacheEntries
		}
		for _, res := range rec.Results[start:] {
			// Only the value is restored; hit bodies encode on first use.
			e := &cacheEntry{}
			var err error
			if strings.HasPrefix(res.Key, sweepKeyPrefix) {
				e.sweep = new(SweepResponse)
				err = json.Unmarshal(res.Body, e.sweep)
			} else {
				e.study = new(StudyResponse)
				err = json.Unmarshal(res.Body, e.study)
			}
			if err != nil {
				s.log.Warn("recovered result unreadable; dropped", "key", res.Key, "error", err)
				continue
			}
			s.cache[res.Key] = e
			s.order = append(s.order, res.Key)
		}
	}

	resumable := make(map[string]bool)
	for _, jr := range rec.Jobs {
		if jr.State == jobQueued || jr.State == jobRunning {
			resumable[jr.Key] = true
		}
	}
	for _, ir := range rec.Idem {
		if _, cached := s.cache[ir.StudyKey]; cached || resumable[ir.StudyKey] {
			s.idem[ir.Key] = ir
			s.idemByKey[ir.StudyKey] = append(s.idemByKey[ir.StudyKey], ir.Key)
		} else {
			// The result this key replayed is gone: expired.
			ik := ir.Key
			s.storeDo("delete_idem", func() error { return s.store.DeleteIdem(ik) })
		}
	}

	resumed := 0
	for _, jr := range rec.Jobs {
		switch jr.State {
		case jobDone, jobFailed:
			s.jobsReg.restoreFinished(jr, s.log)
		case jobQueued, jobRunning:
			s.resumeJob(jr)
			resumed++
		}
	}
	obs.C("server_store_recoveries_total").Inc()
	obs.G("server_jobs_resumed").Set(float64(resumed))
	s.log.Info("store recovered",
		"results", len(s.order), "jobs", len(rec.Jobs), "resumed", resumed, "idem_keys", len(s.idem))
}

// resumeJob re-admits one interrupted job under its original id,
// loading its newest checkpoint so the build continues where the dead
// process stopped (an unreadable checkpoint falls back to a full
// rebuild — correctness never depends on the checkpoint). A sweep whose
// spec cannot be replanned fails terminally: there is nothing to re-run.
func (s *Server) resumeJob(jr store.JobRecord) {
	var k jobKind
	if jr.Kind == jobKindSweep {
		sp, err := s.sweepParamsFromRecord(jr)
		if err != nil {
			s.log.Warn("sweep spec unreadable; job failed", "job", jr.ID, "error", err)
			jr.State = jobFailed
			jr.Class = string(obs.ClassInternal)
			jr.Error = "sweep spec unreadable after restart: " + err.Error()
			s.jobsReg.restoreFinished(jr, s.log)
			s.storeDo("put_job", func() error { return s.store.PutJob(jr) })
			return
		}
		k = &sp
	} else {
		p := s.paramsFromRecord(jr)
		k = &p
	}
	ckpt := k.loadCheckpoint(s, jr.ID)

	j := s.jobsReg.restoreResumed(jr, s.log)
	c := &call{done: make(chan struct{}), job: j}
	s.mu.Lock()
	s.inflight[jr.Key] = c
	s.jobs++
	admitted := s.jobs
	s.mu.Unlock()
	obs.G("server_jobs_admitted").Set(float64(admitted))
	obs.C("server_jobs_resumed_total").Inc()
	s.wg.Add(1)
	j.scope.Log().Info("job resumed from store",
		"restarts", j.restarts, "checkpoint", ckpt, "total", k.total(),
		"seed", jr.Seed, "chips", jr.Chips)
	// Persist the bumped restart count right away, so a crash during
	// the resumed build counts this lifetime too.
	s.persistJob(j, k, jobQueued)
	go s.run(k, c)
}

// loadCheckpoint decodes a crashed study build's newest checkpoint.
func (p *params) loadCheckpoint(s *Server, jobID string) int {
	data, chips, err := s.store.Checkpoint(jobID)
	if err != nil {
		return 0
	}
	bc, err := yieldcache.DecodeBuildCheckpoint(bytes.NewReader(data))
	if err != nil {
		s.log.Warn("checkpoint unreadable; resuming from scratch", "job", jobID, "error", err)
		return 0
	}
	p.resume = bc
	return chips
}

// restoreFinished rebuilds one finished job's history entry from its
// persisted record. Span traces and exact timings died with the old
// process; identity, outcome and provenance survive. Progress is
// restored in the job's own unit: chips, or a sweep's configs.
func (r *jobRegistry) restoreFinished(rec store.JobRecord, base *slog.Logger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.newJobLocked(rec, base)
	j.state = rec.State
	j.class = obs.ErrClass(rec.Class)
	j.errMsg = rec.Error
	j.earlyStop.Store(rec.EarlyStop)
	total := int64(rec.Chips)
	if rec.Kind == jobKindSweep {
		total = int64(sweepRecordConfigs(rec.Spec))
	}
	j.scope.SetProgressTotal(total)
	if rec.State == jobDone && !rec.EarlyStop {
		j.scope.AddProgress(total)
	}
	r.byID[j.id] = j
	if rec.State == jobDone {
		r.byKey[j.key] = j
	}
	r.done = append(r.done, j)
	r.evictLocked()
}

// restoreResumed rebuilds an interrupted job under its original id —
// X-Job-Id stays valid across the restart — with its restart count
// bumped and its past queue waits carried in priorWaitMS.
func (r *jobRegistry) restoreResumed(rec store.JobRecord, base *slog.Logger) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.newJobLocked(rec, base)
	j.state = jobQueued
	j.restarts++
	j.admitted = time.Now()
	j.scope.AttachEvents(r.bus, r.streamInterval)
	r.byID[j.id] = j
	r.byKey[j.key] = j
	return j
}
