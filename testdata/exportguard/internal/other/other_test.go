package other

import (
	"testing"

	"fixture/internal/kit"
)

func TestTwiceSeam(t *testing.T) {
	if Twice(kit.Seam()) != 2 {
		t.Fatal()
	}
}
