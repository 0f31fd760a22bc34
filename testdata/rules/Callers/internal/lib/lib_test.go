package lib

import "testing"

func TestUncalled(t *testing.T) {
	if (Thing{}).Uncalled(2) != 0 || helper() != 2 {
		t.Fatal("Uncalled")
	}
}
