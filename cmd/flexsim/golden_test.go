package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flexmap"
)

// skewtuneWorkloadDigest is the sha256 of the JSONL event trace written
// by `flexsim -engine skewtune -workload 8 -size-gb 4 -policy fair
// -trace F`. It is the one pinned run in which SkewTune shares an RM
// with other jobs through the inter-job scheduler: its AM stacks on the
// stock AM and pokes the RM from inside an offer. Refactors must leave
// it unchanged.
const skewtuneWorkloadDigest = "f78ccfb2b3c7b10fb2ca63bb8d9038a6abb702bfbc7bec9e605126b78c9b9329"

func TestGoldenSkewTuneWorkloadTrace(t *testing.T) {
	// The flag defaults main resolves for that command line.
	factory := flexmap.ClusterPhysical12
	clus, _ := factory()
	spec, err := flexmap.PUMASpec(flexmap.WordCount, clus.Size())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	runWorkload(workloadArgs{
		clusterName: "physical",
		factory:     factory,
		spec:        spec,
		eng:         flexmap.Engine{Kind: flexmap.SkewTune, SplitMB: 64},
		seed:        42,
		jobs:        8,
		rate:        60,
		process:     "poisson",
		policy:      "fair",
		sizeBytes:   4 * flexmap.GB,
		downtime:    120,
		trace:       flexmap.TraceOptions{JSONLPath: path},
	})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != skewtuneWorkloadDigest {
		t.Errorf("skewtune fair workload trace sha256 = %s, want %s", got, skewtuneWorkloadDigest)
	}
}
