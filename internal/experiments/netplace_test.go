package experiments

import (
	"strings"
	"testing"
)

// TestNetPlaceGrid pins the experiment's headline claims: the paper's
// compute-biased placement and the traffic-aware greedy placer agree in
// ranking on an uncontended network (flat and 1:1 order the same way),
// and once the core is oversubscribed 4:1 the greedy placer wins the
// shuffle tail outright.
func TestNetPlaceGrid(t *testing.T) {
	r, err := NetPlace(Config{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("grid has %d rows, want 8", len(r.Rows))
	}
	cell := func(fabric, placement string) *NetPlaceRow {
		c := r.Row(fabric, placement)
		if c == nil {
			t.Fatalf("missing cell %s/%s", fabric, placement)
		}
		return c
	}

	// Flat rows carry no fabric, topology rows must move cross-rack bytes.
	for _, row := range r.Rows {
		if row.Fabric == "flat" && row.CrossRackGB != 0 {
			t.Errorf("flat/%s reports %v cross-rack GB", row.Placement, row.CrossRackGB)
		}
		if row.Fabric != "flat" && row.CrossRackGB <= 0 {
			t.Errorf("%s/%s moved no cross-rack bytes", row.Fabric, row.Placement)
		}
	}

	// At 4:1 (and a fortiori 8:1) the biased placement funnels the
	// shuffle through the fast racks' downlinks and greedy must win the
	// post-map tail.
	for _, fabric := range []string{"4:1", "8:1"} {
		b, g := cell(fabric, "biased"), cell(fabric, "greedy")
		if g.ShuffleSpan >= b.ShuffleSpan {
			t.Errorf("%s: greedy shuffle %.2fs does not beat biased %.2fs",
				fabric, g.ShuffleSpan, b.ShuffleSpan)
		}
	}

	// Oversubscription must actually bite the biased placement: its
	// shuffle tail grows monotonically from 1:1 to 8:1.
	if !(cell("1:1", "biased").ShuffleSpan <= cell("4:1", "biased").ShuffleSpan &&
		cell("4:1", "biased").ShuffleSpan < cell("8:1", "biased").ShuffleSpan) {
		t.Errorf("biased shuffle tail not increasing with oversubscription: %.2f, %.2f, %.2f",
			cell("1:1", "biased").ShuffleSpan, cell("4:1", "biased").ShuffleSpan,
			cell("8:1", "biased").ShuffleSpan)
	}

	// A 1:1 fabric is an uncontended network: it must reproduce the flat
	// model's ranking between the two placements.
	flatSign := sign(cell("flat", "biased").JCT - cell("flat", "greedy").JCT)
	oneSign := sign(cell("1:1", "biased").JCT - cell("1:1", "greedy").JCT)
	if flatSign != oneSign {
		t.Errorf("1:1 ranking (sign %d) does not reproduce flat ranking (sign %d)", oneSign, flatSign)
	}

	out := r.Render()
	for _, want := range []string{"fabric", "4:1", "greedy", "x-rack(GB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
