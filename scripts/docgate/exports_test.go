package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestCheckDeadExports runs the check on a fixture module holding one
// export of each kind: an export only its own package's tests use is
// flagged; an interface-satisfying method, a cross-package test helper
// and an allowlisted name pass; and a stale allowlist entry fails.
func TestCheckDeadExports(t *testing.T) {
	root := filepath.Join("testdata", "deadexports")
	got := checkDeadExports(root, map[string]string{"a.Allowed": "fixture oracle"})
	want := []string{
		"export a.OwnTestOnly has no reference outside its own package's tests: delete it, or allowlist it with a reason",
		"export a.T.Dead has no reference outside its own package's tests: delete it, or allowlist it with a reason",
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems:\n%q\nwant:\n%q", got, want)
	}

	got = checkDeadExports(root, map[string]string{
		"a.Allowed": "fixture oracle", "a.OwnTestOnly": "x", "a.T.Dead": "x",
		"a.Gone": "deleted since", "a.Used": "referenced after all",
	})
	want = []string{
		"allowlist entry a.Gone names no exported identifier of an internal package",
		"allowlist entry a.Used is not needed: code outside its package's tests references it",
	}
	if !slices.Equal(got, want) {
		t.Errorf("stale allowlist problems:\n%q\nwant:\n%q", got, want)
	}
}

// The allowlist stays short and says why each entry stays.
func TestTestOnlyAllowlist(t *testing.T) {
	if len(testOnly) > 8 {
		t.Errorf("testOnly has %d entries, want at most 8", len(testOnly))
	}
	for name, reason := range testOnly {
		if reason == "" {
			t.Errorf("testOnly entry %s has no reason", name)
		}
	}
}
