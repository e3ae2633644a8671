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
	if rows := len(panel(t, r, "").Rows); rows != 8 {
		t.Fatalf("grid has %d rows, want 8", rows)
	}
	type cell struct{ JCT, ShuffleSpan, CrossRackGB float64 }
	row := func(fabric, placement string) cell {
		name := fabric + "/" + placement
		return cell{value(t, r, "", name, "JCT(s)"), value(t, r, "", name, "shuffle(s)"), value(t, r, "", name, "x-rack(GB)")}
	}

	// Flat rows carry no fabric, topology rows must move cross-rack bytes.
	for _, fabric := range []string{"flat", "1:1", "4:1", "8:1"} {
		for _, placement := range []string{"biased", "greedy"} {
			gb := row(fabric, placement).CrossRackGB
			if fabric == "flat" && gb != 0 {
				t.Errorf("flat/%s reports %v cross-rack GB", placement, gb)
			}
			if fabric != "flat" && gb <= 0 {
				t.Errorf("%s/%s moved no cross-rack bytes", fabric, placement)
			}
		}
	}

	// At 4:1 (and a fortiori 8:1) the biased placement funnels the
	// shuffle through the fast racks' downlinks and greedy must win the
	// post-map tail.
	for _, fabric := range []string{"4:1", "8:1"} {
		b, g := row(fabric, "biased"), row(fabric, "greedy")
		if g.ShuffleSpan >= b.ShuffleSpan {
			t.Errorf("%s: greedy shuffle %.2fs does not beat biased %.2fs",
				fabric, g.ShuffleSpan, b.ShuffleSpan)
		}
	}

	// Oversubscription must actually bite the biased placement: its
	// shuffle tail grows monotonically from 1:1 to 8:1.
	if !(row("1:1", "biased").ShuffleSpan <= row("4:1", "biased").ShuffleSpan &&
		row("4:1", "biased").ShuffleSpan < row("8:1", "biased").ShuffleSpan) {
		t.Errorf("biased shuffle tail not increasing with oversubscription: %.2f, %.2f, %.2f",
			row("1:1", "biased").ShuffleSpan, row("4:1", "biased").ShuffleSpan,
			row("8:1", "biased").ShuffleSpan)
	}

	// A 1:1 fabric is an uncontended network: it must reproduce the flat
	// model's ranking between the two placements.
	flatSign := sign(row("flat", "biased").JCT - row("flat", "greedy").JCT)
	oneSign := sign(row("1:1", "biased").JCT - row("1:1", "greedy").JCT)
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
