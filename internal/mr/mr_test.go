package mr

import (
	"math"
	"testing"
	"testing/quick"

	"flexmap/internal/sim"
)

func validSpec() JobSpec {
	return JobSpec{
		Name: "wc", InputFile: "in", NumReducers: 4,
		MapCost: 1, ShuffleRatio: 0.5, ReduceCost: 1,
	}
}

func TestValidateAcceptsGoodSpec(t *testing.T) {
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"no name", func(s *JobSpec) { s.Name = "" }},
		{"no input", func(s *JobSpec) { s.InputFile = "" }},
		{"negative reducers", func(s *JobSpec) { s.NumReducers = -1 }},
		{"zero map cost", func(s *JobSpec) { s.MapCost = 0 }},
		{"negative shuffle", func(s *JobSpec) { s.ShuffleRatio = -0.1 }},
		{"negative reduce cost", func(s *JobSpec) { s.ReduceCost = -1 }},
		{"NaN map cost", func(s *JobSpec) { s.MapCost = math.NaN() }},
		{"infinite map cost", func(s *JobSpec) { s.MapCost = math.Inf(1) }},
		{"NaN shuffle", func(s *JobSpec) { s.ShuffleRatio = math.NaN() }},
		{"infinite shuffle", func(s *JobSpec) { s.ShuffleRatio = math.Inf(1) }},
		{"NaN reduce cost", func(s *JobSpec) { s.ReduceCost = math.NaN() }},
		{"infinite reduce cost", func(s *JobSpec) { s.ReduceCost = math.Inf(1) }},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad spec", tc.name)
		}
	}
}

func TestTaskTypeString(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Fatal("TaskType.String mismatch")
	}
}

func TestAttemptProductivity(t *testing.T) {
	a := AttemptRecord{Start: 10, End: 20, Overhead: 2, Effective: 8}
	if got := a.Productivity(); got != 0.8 {
		t.Fatalf("productivity = %v, want 0.8", got)
	}
	if a.Runtime() != 10 {
		t.Fatalf("runtime = %v, want 10", a.Runtime())
	}
	zero := AttemptRecord{Start: 5, End: 5}
	if zero.Productivity() != 0 {
		t.Fatal("zero-runtime attempt should have 0 productivity")
	}
}

func TestJobResultPhases(t *testing.T) {
	r := JobResult{
		Submitted: 0, MapPhaseStart: 1, MapPhaseEnd: 11,
		Finished: 20, AvailableContainers: 4,
		Attempts: []AttemptRecord{
			{Task: "m0", Type: MapTask, Start: 1, End: 6},
			{Task: "m1", Type: MapTask, Start: 1, End: 11},
			{Task: "m2", Type: MapTask, Start: 2, End: 7, Killed: true},
			{Task: "r0", Type: ReduceTask, Start: 11, End: 20},
		},
	}
	if r.JCT() != 20 {
		t.Fatalf("JCT = %v", r.JCT())
	}
	if len(r.MapAttempts()) != 2 {
		t.Fatalf("MapAttempts = %d, want 2 (killed excluded)", len(r.MapAttempts()))
	}
	if len(r.ReduceAttempts()) != 1 {
		t.Fatalf("ReduceAttempts = %d, want 1", len(r.ReduceAttempts()))
	}
	if r.SerialRuntime() != 15 {
		t.Fatalf("SerialRuntime = %v, want 15", r.SerialRuntime())
	}
	if r.MapPhaseRuntime() != 10 {
		t.Fatalf("MapPhaseRuntime = %v, want 10", r.MapPhaseRuntime())
	}
	want := 15.0 / (10.0 * 4.0)
	if got := r.Efficiency(); got != want {
		t.Fatalf("Efficiency = %v, want %v", got, want)
	}
}

func TestEfficiencyDegenerate(t *testing.T) {
	r := JobResult{MapPhaseStart: 5, MapPhaseEnd: 5, AvailableContainers: 4}
	if r.Efficiency() != 0 {
		t.Fatal("zero-phase efficiency should be 0")
	}
	r2 := JobResult{MapPhaseStart: 0, MapPhaseEnd: 10}
	if r2.Efficiency() != 0 {
		t.Fatal("zero-container efficiency should be 0")
	}
}

// Property: productivity is always within [0,1] when effective ≤ runtime.
func TestPropertyProductivityBounds(t *testing.T) {
	f := func(startRaw, runRaw, effRaw uint16) bool {
		start := sim.Time(startRaw % 1000)
		run := sim.Duration(runRaw%1000) + 1
		eff := sim.Duration(effRaw)
		if eff > run {
			eff = run
		}
		rec := AttemptRecord{Start: start, End: start + sim.Time(run), Effective: eff}
		p := rec.Productivity()
		return p >= 0 && p <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
