package main

import (
	"strings"
	"testing"
)

const studyBody = `{
  "seed": 7,
  "chips": 2000,
  "limits": {"delay_ps": 971.5813, "leakage_w": 0.17703},
  "regular": {"n": 2000, "base_total": 35, "totals": {"YAPD": 13}},
  "cached": false,
  "elapsed_ms": 61.25
}`

// TestDigestIgnoresOnlyVolatileFields: two serves of one result digest
// alike whatever their build time, cache flag, key order or layout; any
// other change, down to a float's last digit, changes the digest.
func TestDigestIgnoresOnlyVolatileFields(t *testing.T) {
	base, err := digest([][]byte{[]byte(studyBody)})
	if err != nil {
		t.Fatal(err)
	}
	same := []string{
		strings.Replace(strings.Replace(studyBody, `"cached": false`, `"cached": true`, 1), "61.25", "3.5", 1),
		`{"elapsed_ms":1,"chips":2000,"seed":7,"regular":{"totals":{"YAPD":13},"base_total":35,"n":2000},` +
			`"limits":{"leakage_w":0.17703,"delay_ps":971.5813}}`,
	}
	for _, body := range same {
		d, err := digest([][]byte{[]byte(body)})
		if err != nil {
			t.Fatal(err)
		}
		if d != base {
			t.Errorf("digest changed for an equivalent body:\n%s", body)
		}
	}
	different := []string{
		strings.Replace(studyBody, "971.5813", "971.5814", 1),
		strings.Replace(studyBody, `"YAPD": 13`, `"YAPD": 14`, 1),
		strings.Replace(studyBody, `"seed": 7`, `"seed": 8`, 1),
		strings.Replace(studyBody, `"cached": false,`, `"cached": false, "early_stop": true,`, 1),
	}
	for _, body := range different {
		d, err := digest([][]byte{[]byte(body)})
		if err != nil {
			t.Fatal(err)
		}
		if d == base {
			t.Errorf("digest unchanged for a different result:\n%s", body)
		}
	}
	two, err := digest([][]byte{[]byte(studyBody), []byte(studyBody)})
	if err != nil {
		t.Fatal(err)
	}
	if two == base {
		t.Error("a digest over two responses equals the digest over one")
	}
	if _, err := digest([][]byte{[]byte("not json")}); err == nil {
		t.Error("digest accepted a body that is not JSON")
	}
}

func TestBoolFlagValues(t *testing.T) {
	got := strings.Join(boolFlagValues([]string{"--workload", "x", "--trace", "0", "-trace", "1", "-trace", "-seed", "1"}, "trace"), " ")
	want := "--workload x --trace=0 -trace=1 -trace -seed 1"
	if got != want {
		t.Errorf("boolFlagValues = %q, want %q", got, want)
	}
}
