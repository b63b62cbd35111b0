package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestPopulationRoundTrip(t *testing.T) {
	_, orig := build(t, PopulationConfig{N: 50, Seed: 11})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPopulation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != orig.Seed || !got.Model.HYAPD {
		t.Error("metadata lost in round trip")
	}
	if len(got.Chips) != len(orig.Chips) {
		t.Fatalf("chips = %d, want %d", len(got.Chips), len(orig.Chips))
	}
	for i := range got.Chips {
		if got.Chips[i].Meas.LatencyPS != orig.Chips[i].Meas.LatencyPS ||
			got.Chips[i].Meas.LeakageW != orig.Chips[i].Meas.LeakageW {
			t.Fatalf("chip %d altered by round trip", i)
		}
	}
	// The reloaded population supports the full analysis path.
	lim := DeriveLimits(got, Nominal())
	bd := BreakdownLosses(got, lim, Hybrid{})
	if bd.N != 50 {
		t.Error("analysis on reloaded population broken")
	}
}

func TestReadPopulationErrors(t *testing.T) {
	if _, err := ReadPopulation(strings.NewReader("not gob")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadPopulation(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// Every way a snapshot can be damaged must fail with an error that
// names the problem, before gob ever touches the bytes.
func TestReadPopulationDescriptiveErrors(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 10, Seed: 5})
	var buf bytes.Buffer
	if err := pop.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte, want string) {
		t.Helper()
		_, err := ReadPopulation(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", name, err, want)
		}
	}

	check("truncated header", good[:7], "truncated in header")

	wrongMagic := append([]byte(nil), good...)
	copy(wrongMagic, "NOPE!")
	check("wrong magic", wrongMagic, "magic")

	wrongVersion := append([]byte(nil), good...)
	wrongVersion[5] = 99
	check("wrong version", wrongVersion, "version 99")

	check("truncated payload", good[:len(good)-10], "truncated")

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x40
	check("payload bit flip", flipped, "checksum")
}
