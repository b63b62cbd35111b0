package b

import (
	"testing"

	"fixture/internal/a"
)

func TestB(t *testing.T) {
	if a.Helper() != 3 {
		t.Fatal("helper")
	}
}
