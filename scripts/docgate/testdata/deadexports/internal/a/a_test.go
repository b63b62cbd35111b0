package a

import "testing"

func TestA(t *testing.T) {
	if OwnTestOnly()+Allowed() != 6 {
		t.Fatal("sum")
	}
	T{}.Dead()
}
