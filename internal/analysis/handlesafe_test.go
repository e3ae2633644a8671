package analysis

import "testing"

func TestHandlesafe(t *testing.T) {
	runWant(t, "testdata/src/handlesafe", "flexmap/internal/engine/hstest", Handlesafe)
}
