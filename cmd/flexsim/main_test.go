package main

import (
	"strings"
	"testing"

	"flexmap"
)

func TestCheckFlags(t *testing.T) {
	type flags struct {
		nodes, jobs, spares, hostsPerRack int
		slowFraction                      float64
		sizeGB                            int64
	}
	ok := flags{nodes: 6, slowFraction: 0.2, sizeGB: 20}
	cases := []struct {
		name string
		edit func(*flags)
		want string // substring of the error; "" for no error
	}{
		{"defaults", func(*flags) {}, ""},
		{"largest size", func(f *flags) { f.sizeGB = 8589934591 }, ""},
		{"zero nodes", func(f *flags) { f.nodes = 0 }, "-nodes 0"},
		{"slow fraction above one", func(f *flags) { f.slowFraction = 1.5 }, "-slow-fraction 1.5"},
		{"negative workload", func(f *flags) { f.jobs = -2 }, "-workload -2"},
		{"negative membership", func(f *flags) { f.spares = -3 }, "-membership -3"},
		{"negative topology", func(f *flags) { f.hostsPerRack = -2 }, "-topology -2"},
		{"size overflows", func(f *flags) { f.sizeGB = 100000000000 }, "-size-gb 100000000000"},
		{"size just overflows", func(f *flags) { f.sizeGB = 8589934592 }, "-size-gb 8589934592"},
		{"negative size overflows", func(f *flags) { f.sizeGB = -100000000000 }, "-size-gb -100000000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.edit(&f)
			err := checkFlags(f.nodes, f.jobs, f.spares, f.hostsPerRack, f.slowFraction, f.sizeGB)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestNetworkLineEffectiveRatio checks that the network line prints the
// oversubscription the fabric runs at: a zero -oversub means 1:1.
func TestNetworkLineEffectiveRatio(t *testing.T) {
	for _, tc := range []struct {
		oversub float64
		want    string
	}{
		{0, "(topology 4 hosts/rack, 1:1 oversub)"},
		{1, "(topology 4 hosts/rack, 1:1 oversub)"},
		{2.5, "(topology 4 hosts/rack, 2.5:1 oversub)"},
	} {
		if got := networkLine(93, 0.5, 4, tc.oversub); !strings.HasSuffix(got, tc.want) {
			t.Errorf("networkLine(-oversub %v) = %q, want it to end %q", tc.oversub, got, tc.want)
		}
	}
}

// TestSplitFlag runs the single job flexsim builds from its -split flag:
// a size that is negative, not a multiple of the 8 MB block unit, or too
// large to count in bytes is an error naming the split, never a run
// under another split size.
func TestSplitFlag(t *testing.T) {
	spec, err := flexmap.PUMASpec(flexmap.WordCount, 4)
	if err != nil {
		t.Fatal(err)
	}
	sc := flexmap.Scenario{Cluster: flexmap.ClusterHomogeneous(2), Seed: 42, InputSize: flexmap.GB / 4}
	for _, tc := range []struct {
		splitMB int
		want    string // substring of the error; "" for no error
	}{
		{64, ""},
		{1 << 40, ""},
		{1<<44 + 8, "split size 17592186044424 MB"},
		{1 << 44, "split size 17592186044416 MB"},
		{-8, "split size -8 MB"},
		{12, "split size 12 MB"},
	} {
		_, err := flexmap.Run(sc, spec, flexmap.Engine{Kind: flexmap.Hadoop, SplitMB: tc.splitMB})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("-split %d: unexpected error: %v", tc.splitMB, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("-split %d: error = %v, want one naming %q", tc.splitMB, err, tc.want)
		}
	}
}
