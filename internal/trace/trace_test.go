package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flexmap/internal/sim"
)

// emitSample drives a tracer through one small synthetic run with events
// at distinct virtual times.
func emitSample(t *testing.T) *Tracer {
	t.Helper()
	eng := sim.New()
	tr := New(eng)
	tr.SizerDecision(0, 1.5, 2, 10, 64, 3)
	tr.TaskBind("map-0000", 0, 3, 3)
	tr.MapDispatch("map-0000", 0, 0, 3, 3, 3<<23, 0, false)
	eng.At(5, "hb", func() {
		tr.Heartbeat(0, 10<<20, 9<<20, false)
		tr.FaultInject(1, 30)
		tr.FaultDetect(1)
	})
	eng.At(8, "done", func() {
		tr.TaskDone("map-0000", 0, 3<<23)
		tr.Commit(0, 3, 1<<20)
		tr.MapDispatch("map-0001", 1, 0, 2, 0, 2<<23, 2<<23, true)
	})
	eng.At(9, "kill", func() {
		tr.TaskKill("map-0001", 1, true)
		tr.ReduceDispatch("reduce-0000", 0, 4<<20)
		tr.ReducePlace(0, 0, 1.0, 3, false)
		tr.FaultRecover(1, true)
	})
	eng.Run()
	return tr
}

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must report disabled")
	}
	tr.SizerDecision(0, 1, 1, 1, 1, 1)
	tr.TaskBind("x", 0, 1, 1)
	tr.MapDispatch("x", 0, 0, 1, 1, 1, 0, false)
	tr.ReduceDispatch("x", 0, 1)
	tr.TaskDone("x", 0, 1)
	tr.TaskKill("x", 0, true)
	tr.Commit(0, 1, 1)
	tr.Heartbeat(0, 1, 1, false)
	tr.ReducePlace(0, 0, 1, 1, false)
	tr.FaultInject(0, 1)
	tr.FaultDetect(0)
	tr.FaultRecover(0, false)
	if tr.Events() != nil || tr.ForJob("j0000") != nil {
		t.Fatal("nil tracer must expose no state")
	}
}

func TestJSONLDeterministicAndValid(t *testing.T) {
	a, b := emitSample(t), emitSample(t)
	var bufA, bufB bytes.Buffer
	if err := WriteJSONL(&bufA, a.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&bufB, b.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("two identical runs produced different JSONL bytes")
	}
	lines := strings.Split(strings.TrimRight(bufA.String(), "\n"), "\n")
	if len(lines) != len(a.Events()) {
		t.Fatalf("%d JSONL lines for %d events", len(lines), len(a.Events()))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if _, ok := obj["t"]; !ok {
			t.Fatalf("line %d missing timestamp: %s", i, line)
		}
		if _, ok := obj["kind"].(string); !ok {
			t.Fatalf("line %d missing kind: %s", i, line)
		}
	}
	// Spot-check one schema: the speculative dispatch carries its flag.
	if !strings.Contains(bufA.String(), `"task":"map-0001"`) ||
		!strings.Contains(bufA.String(), `"speculative":true`) {
		t.Fatalf("speculative dispatch not encoded:\n%s", bufA.String())
	}
}

func TestPerfettoValidJSONWithMatchedSpans(t *testing.T) {
	tr := emitSample(t)
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("perfetto envelope wrong: %+v", doc)
	}
	slices, counters := 0, 0
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
			if e["dur"].(float64) < 0 {
				t.Fatalf("negative span duration: %v", e)
			}
		case "C":
			counters++
		}
	}
	// map-0000 done + map-0001 killed + reduce-0000 unfinished = 3 slices.
	if slices != 3 {
		t.Fatalf("%d slices, want 3", slices)
	}
	if counters != 1 {
		t.Fatalf("%d counter samples, want 1", counters)
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := emitSample(t)
	out := RenderTimeline(tr.Events())
	for _, want := range []string{"sizer", "map-0000", "task-kill", "fault-inject", "heartbeats:", "node0=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "heartbeat ") != 0 {
		t.Fatalf("heartbeat rows should be summarized, not listed:\n%s", out)
	}
}

// TestEmitAllocatesOnlyArgs pins the cost of tracing on: once the event
// slice has grown, an emission allocates only its variadic args slice,
// from the root view and from a job view alike.
func TestEmitAllocatesOnlyArgs(t *testing.T) {
	root := New(sim.New())
	for _, tr := range []*Tracer{root, root.ForJob("j0000")} {
		for _, c := range []struct {
			name string
			emit func()
		}{
			{"Heartbeat", func() { tr.Heartbeat(3, 10<<20, 9<<20, false) }},
			{"MapDispatch", func() { tr.MapDispatch("map-0000", 3, 1, 4, 2, 4<<23, 2<<23, true) }},
			{"TaskDone", func() { tr.TaskDone("map-0000", 3, 4<<23) }},
		} {
			for i := 0; i < 1024; i++ {
				c.emit()
			}
			if allocs := testing.AllocsPerRun(1000, c.emit); allocs > 1 {
				t.Errorf("%s (job %q): %v allocs per emission, want <= 1", c.name, tr.job, allocs)
			}
		}
	}
}

func TestOptionsEnabled(t *testing.T) {
	if (Options{}).Enabled() {
		t.Fatal("zero options must be disabled")
	}
	for _, o := range []Options{{Collect: true}, {JSONLPath: "x"}, {PerfettoPath: "y"}} {
		if !o.Enabled() {
			t.Fatalf("options %+v should be enabled", o)
		}
	}
}
