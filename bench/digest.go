package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// volatileFields are the response fields that differ between two
// serves of the same result: the build's wall time and whether the
// result came from the cache. Job ids travel in the X-Job-Id header,
// never in a body.
var volatileFields = []string{"elapsed_ms", "cached"}

// normalize re-encodes a JSON response body canonically (sorted keys,
// numbers kept as their exact decimal text) with the volatile fields
// removed, so two serves of one result normalise to the same bytes.
func normalize(body []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("decoding response for the digest: %w", err)
	}
	for _, k := range volatileFields {
		delete(v, k)
	}
	return json.Marshal(v)
}

// digest is the sha256 over the normalised bodies in order.
func digest(bodies [][]byte) (string, error) {
	h := sha256.New()
	for _, b := range bodies {
		nb, err := normalize(b)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(nb)
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sameResult reports whether two response bodies carry the same result.
func sameResult(a, b []byte) (bool, error) {
	na, err := normalize(a)
	if err != nil {
		return false, err
	}
	nb, err := normalize(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(na, nb), nil
}
