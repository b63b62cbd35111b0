package server

import (
	"encoding/json"
	"log/slog"
	"net/http"
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
	rec.ID, rec.Seq, rec.Key, rec.Kind, rec.State = j.id, j.seq, j.key, j.kind, state
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
// record, the cached result body, evicted results, and expired
// idempotency keys (including those bound to a build whose result is
// not cached). A resumed job also deletes any checkpoint an older
// server wrote for it, which this server never reads.
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
		if body, err := json.Marshal(c.res.val); err == nil {
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
	if j.restarts > 0 {
		s.storeDo("delete_checkpoint", func() error { return s.store.DeleteCheckpoint(j.id) })
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

// kindFromRecord is the one reader of store.JobRecord.Kind: it
// rebuilds the kind a persisted job was admitted as, so the registry
// lists a finished job in its own progress unit and resumeJob re-runs
// an interrupted one exactly as the crashed server admitted it. It does
// no real work for either: a sweep's spec is decoded but planned only
// when the job runs, so restoring a finished sweep stays cheap, and a
// spec that no longer decodes fails the resumed job when it runs.
func (s *Server) kindFromRecord(rec store.JobRecord) jobKind {
	timeout := time.Duration(rec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if rec.Kind == jobKindSweep {
		sp := &sweepParams{spec: yieldcache.SweepSpec{Seed: rec.Seed, N: rec.Chips},
			timeout: timeout, canonical: rec.Spec, key: rec.Key}
		var can sweepCanonical
		if sp.specErr = json.Unmarshal(rec.Spec, &can); sp.specErr == nil {
			sp.spec, sp.schemes = can.Spec, can.Schemes
			sp.configs, _ = sweepConfigCount(can.Spec)
		}
		if len(sp.schemes) == 0 {
			sp.schemes = schemeOrder
		}
		return sp
	}
	p := &params{
		seed:       rec.Seed,
		chips:      rec.Chips,
		cons:       yieldcache.Constraints{Name: rec.ConsName, DelaySigmaK: rec.DelaySigmaK, LeakageMult: rec.LeakageMult},
		schemes:    rec.Schemes,
		timeout:    timeout,
		targetCI:   rec.TargetCIWidth,
		confidence: rec.Confidence,
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
// every job that was queued or running when the last process died, to
// be rebuilt from its request. Runs once from New, before the server
// serves any request.
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
			e, err := decodeResult(res.Key, res.Body)
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
			s.jobsReg.restoreFinished(jr, s.kindFromRecord(jr), s.log)
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

// resumeJob re-admits one interrupted job under its original id. It
// runs again from its request: chip i is a pure function of (seed, i),
// so the rebuilt study or sweep is bit-identical to the one the dead
// process was building.
func (s *Server) resumeJob(jr store.JobRecord) {
	k := s.kindFromRecord(jr)
	j := s.jobsReg.restoreResumed(jr, k, s.log)
	c := &call{done: make(chan struct{}), job: j}
	s.mu.Lock()
	s.inflight[jr.Key] = c
	s.jobs++
	s.mu.Unlock()
	obs.C("server_jobs_resumed_total").Inc()
	s.wg.Add(1)
	j.scope.Log().Info("job resumed from store",
		"restarts", j.restarts, "total", k.total(),
		"seed", jr.Seed, "chips", jr.Chips)
	// Persist the bumped restart count right away, so a crash during
	// the resumed build counts this lifetime too.
	s.persistJob(j, k, jobQueued)
	go s.run(k, c)
}

// restoreFinished rebuilds one finished job's history entry from its
// persisted record and its kind k. Span traces and exact timings died
// with the old process; identity, outcome and provenance survive.
// Progress is restored in the job's own unit: chips, or a sweep's
// configs.
func (r *jobRegistry) restoreFinished(rec store.JobRecord, k jobKind, base *slog.Logger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.newJobLocked(rec, k, base)
	j.state = rec.State
	j.class = obs.ErrClass(rec.Class)
	j.errMsg = rec.Error
	j.earlyStop.Store(rec.EarlyStop)
	total := int64(k.total())
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
func (r *jobRegistry) restoreResumed(rec store.JobRecord, k jobKind, base *slog.Logger) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.newJobLocked(rec, k, base)
	j.state = jobQueued
	j.restarts++
	j.admitted = time.Now()
	j.scope.AttachEvents(r.bus, r.streamInterval)
	r.byID[j.id] = j
	r.byKey[j.key] = j
	return j
}
