package kit

import "testing"

func TestOnlyIsOne(t *testing.T) {
	if TestOnly != 1 {
		t.Fatal(TestOnly)
	}
}
