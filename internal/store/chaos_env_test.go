package store

import (
	"testing"
	"time"
)

func TestChaosFromEnv(t *testing.T) {
	cases := []struct {
		raw  string
		want ChaosConfig
		ok   bool
	}{
		{"", ChaosConfig{}, true},
		{"err=0.1", ChaosConfig{ErrRate: 0.1}, true},
		{"err=0.1,lat=5ms,partial=0.05,seed=7",
			ChaosConfig{ErrRate: 0.1, Latency: 5 * time.Millisecond, PartialRate: 0.05, Seed: 7}, true},
		{" err=0.2 , seed=3", ChaosConfig{ErrRate: 0.2, Seed: 3}, true},
		{"err=lots", ChaosConfig{}, false},
		{"lat=fast", ChaosConfig{}, false},
		{"bogus=1", ChaosConfig{}, false},
		{"err", ChaosConfig{}, false},
	}
	for _, tc := range cases {
		t.Setenv("YIELDD_CHAOS", tc.raw)
		got, err := ChaosFromEnv()
		if (err == nil) != tc.ok {
			t.Errorf("ChaosFromEnv(%q): err = %v, want ok=%v", tc.raw, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ChaosFromEnv(%q) = %+v, want %+v", tc.raw, got, tc.want)
		}
	}
}

func TestWithChaosDisabledUnwraps(t *testing.T) {
	m := mustOpen(t, t.TempDir())
	defer m.Close()
	if s := WithChaos(m, ChaosConfig{}); s != Store(m) {
		t.Error("disabled chaos config did not return the inner store unwrapped")
	}
	if s := WithChaos(m, ChaosConfig{ErrRate: 0.5}); s == Store(m) {
		t.Error("enabled chaos config returned the inner store unwrapped")
	}
}
