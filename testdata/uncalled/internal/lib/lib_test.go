package lib

import "testing"

func TestUncalled(t *testing.T) {
	if (Thing{}).Uncalled(2) != 0 {
		t.Fatal("Uncalled")
	}
}
