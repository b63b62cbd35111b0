package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"yieldcache/internal/obs"
)

// maxHitVariants bounds how many encoded hit bodies one cache entry
// keeps. A study has at most four presentation variants (the two
// include_* flags); a sweep has one per distinct economics spec, and
// variants past the bound are encoded per request and not kept.
const maxHitVariants = 4

// cacheEntry is one result-cache slot: the decoded result and a memo of
// its encoded cached:true bodies, one per presentation variant. The
// result is immutable; the memo fills lazily on the first hit of each
// variant and is dropped with the entry on eviction.
type cacheEntry struct {
	val  result
	noun string // the kind that built val, for its eviction counter

	mu   sync.Mutex // guards memo; never held across an encode
	memo []*memoBody
}

// hitVariant is the presentation a hit is rendered under: the include_*
// flags for a study, the resolved economics (or none) for a sweep.
type hitVariant struct {
	scatter, saved bool
	econ           sweepEconParams
	hasEcon        bool
}

// memoBody is one memoized hit body; once makes concurrent first hits
// of the same variant encode it exactly once.
type memoBody struct {
	variant hitVariant
	once    sync.Once
	body    []byte
}

// hitBody returns the encoded body for variant v, encoding it with
// encode on the variant's first hit. Past maxHitVariants the body is
// encoded for this response only.
func (e *cacheEntry) hitBody(v hitVariant, encode func() []byte) []byte {
	e.mu.Lock()
	var hb *memoBody
	for _, m := range e.memo {
		if m.variant == v {
			hb = m
			break
		}
	}
	if hb == nil && len(e.memo) < maxHitVariants {
		hb = &memoBody{variant: v}
		e.memo = append(e.memo, hb)
	}
	e.mu.Unlock()
	if hb == nil {
		return encode()
	}
	hb.once.Do(func() { hb.body = encode() })
	return hb.body
}

// result is a finished job's response value: a *StudyResponse under a
// study key, a *SweepResponse under a sweep key. Each kind asserts its
// own type; decodeResult is the one place that picks it from a key.
type result interface {
	// elapsedMS is the wall time of the build that produced the result.
	elapsedMS() float64
}

func (r *StudyResponse) elapsedMS() float64 { return r.ElapsedMS }
func (r *SweepResponse) elapsedMS() float64 { return r.ElapsedMS }

// decodeResult decodes a persisted result body into a cache entry of
// its kind's response type, chosen by the key's namespace.
func decodeResult(key string, body []byte) (*cacheEntry, error) {
	e := &cacheEntry{val: new(StudyResponse), noun: "study"}
	if strings.HasPrefix(key, sweepKeyPrefix) {
		e.val, e.noun = new(SweepResponse), "sweep"
	}
	return e, json.Unmarshal(body, e.val)
}

// cacheInsertLocked adds a finished result under key, evicting the
// oldest entries to stay within CacheEntries. It reports whether the
// entry was added (false when caching is off or key is already cached),
// the evicted keys and the idempotency keys that expired with them.
// Caller holds s.mu.
func (s *Server) cacheInsertLocked(key string, e *cacheEntry) (cached bool, evicted, expiredIdem []string) {
	if s.cfg.CacheEntries <= 0 {
		return false, nil, nil
	}
	if _, dup := s.cache[key]; dup {
		return false, nil, nil
	}
	for len(s.cache) >= s.cfg.CacheEntries {
		oldest := s.order[0]
		s.order = s.order[1:]
		obs.C("server_" + s.cache[oldest].noun + "_cache_evictions_total").Inc()
		delete(s.cache, oldest)
		evicted = append(evicted, oldest)
		expiredIdem = append(expiredIdem, s.expireIdemLocked(oldest)...)
	}
	s.cache[key] = e
	s.order = append(s.order, key)
	return true, evicted, expiredIdem
}

// writeOK starts a successful result response: the ok request counter,
// the JSON content type, status 200 and, when known, the producing
// job's id in X-Job-Id, so clients can follow its live state and trace
// at /v1/jobs/{id}. Cache hits name the job that built the entry while
// it is still within the bounded job history.
func writeOK(w http.ResponseWriter, jobID string) {
	if jobID != "" {
		w.Header().Set("X-Job-Id", jobID)
	}
	obs.C(`server_requests_total{class="` + string(obs.ClassOK) + `"}`).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
}

// writeHit sends a memoized hit body: the same headers and bytes the
// encoder would have produced for the cached result.
func writeHit(w http.ResponseWriter, body []byte, jobID string) {
	writeOK(w, jobID)
	_, _ = w.Write(body)
}

// encodeJSON returns the bytes writeBody would send for v.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	writeBody(&buf, v)
	return buf.Bytes()
}
