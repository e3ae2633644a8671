package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
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

// TestEmitAllocatesNothing pins the cost of tracing on: once the event
// slice and the args arena have grown, an emission allocates nothing,
// from the root view and from a job view alike.
func TestEmitAllocatesNothing(t *testing.T) {
	root := New(sim.New())
	for _, tr := range []*Tracer{root, root.ForJob("j0000")} {
		for _, c := range []struct {
			name string
			emit func()
		}{
			{"Heartbeat", func() { tr.Heartbeat(3, 10<<20, 9<<20, false) }},
			{"MapDispatch", func() { tr.MapDispatch("map-0000", 3, 1, 4, 2, 4<<23, 2<<23, true) }},
			{"TaskDone", func() { tr.TaskDone("map-0000", 3, 4<<23) }},
			{"FaultDetect", func() { tr.FaultDetect(3) }},
		} {
			for i := 0; i < 1024; i++ {
				c.emit()
			}
			if allocs := testing.AllocsPerRun(1000, c.emit); allocs != 0 {
				t.Errorf("%s (job %q): %v allocs per emission, want 0", c.name, tr.job, allocs)
			}
		}
	}
}

// TestEventArgsIsolated checks that events sharing an arena chunk do not
// share args: appending to one event's Args leaves the next event's
// unchanged, and a zero-arg event has nil Args.
func TestEventArgsIsolated(t *testing.T) {
	tr := New(sim.New())
	tr.TaskDone("map-0000", 1, 10)
	tr.TaskDone("map-0001", 2, 20)
	tr.FaultDetect(3)
	events := tr.Events()
	first := append(events[0].Args, Int("extra", 99))
	if len(first) != 2 || first[1].i != 99 {
		t.Fatalf("append to the first event's args gave %+v", first)
	}
	if next := events[1].Args; len(next) != 1 || next[0].Key != "bytes" || next[0].i != 20 {
		t.Fatalf("appending to one event's args changed the next event's: %+v", next)
	}
	if events[2].Args != nil {
		t.Fatalf("zero-arg event has args %+v, want nil", events[2].Args)
	}
}

// TestArenaChunksGrow checks the arena's chunk sizes: a small run keeps
// a small chunk, and chunks double up to the cap.
func TestArenaChunksGrow(t *testing.T) {
	tr := New(sim.New())
	tr.TaskDone("map-0000", 1, 10)
	if got := cap(tr.st.args); got != minArgChunk {
		t.Fatalf("first chunk holds %d args, want %d", got, minArgChunk)
	}
	for i := 0; i < 4*maxArgChunk; i++ {
		tr.TaskDone("map-0000", 1, 10)
	}
	if got := cap(tr.st.args); got != maxArgChunk {
		t.Fatalf("chunk holds %d args after %d events, want the %d cap", got, 4*maxArgChunk+1, maxArgChunk)
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteJSONLReportsWriteErrors(t *testing.T) {
	events := emitEveryKind()
	for _, n := range []int{0, 1, len(events)} {
		if err := WriteJSONL(failWriter{}, events[:n]); err == nil {
			t.Fatalf("%d events: no error from a failing writer", n)
		}
	}
	// Enough events to fill a block before the last one.
	var many []Event
	for len(many)*64 < 2*jsonlBlock {
		many = append(many, events...)
	}
	if err := WriteJSONL(failWriter{}, many); err == nil {
		t.Fatal("no error from a failing writer on a multi-block stream")
	}
}

// TestOptionsWrite writes both files into a temporary directory and
// checks them against the encoders' own output, then checks the errors
// for a path that cannot be created.
func TestOptionsWrite(t *testing.T) {
	tr := emitSample(t)
	dir := t.TempDir()
	o := Options{JSONLPath: filepath.Join(dir, "events.jsonl"), PerfettoPath: filepath.Join(dir, "perfetto.json")}
	if err := o.Write(tr); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		path  string
		write func(io.Writer, []Event) error
	}{{o.JSONLPath, WriteJSONL}, {o.PerfettoPath, WritePerfetto}} {
		var want bytes.Buffer
		if err := f.write(&want, tr.Events()); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s holds %d bytes, want %d", f.path, len(got), want.Len())
		}
	}
	// No paths: nothing written, no error.
	if err := (Options{Collect: true}).Write(tr); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "no-such-dir", "x")
	for _, o := range []Options{{JSONLPath: missing}, {PerfettoPath: missing}} {
		if err := o.Write(tr); err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
			t.Fatalf("%+v: error %v, want a trace: error", o, err)
		}
	}
	// A write that fails: /dev/full accepts the open and fails the write.
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := (Options{JSONLPath: "/dev/full"}).Write(tr); err == nil || !strings.Contains(err.Error(), "writing /dev/full") {
			t.Fatalf("error %v, want a writing error", err)
		}
	}
}

// BenchmarkEmit measures one traced emission per kind shape: six args,
// one arg and none. The stream is cut back every 65,536 events, so the
// benchmark's memory stays bounded and the event slice stops growing.
func BenchmarkEmit(b *testing.B) {
	for _, c := range []struct {
		name string
		emit func(*Tracer)
	}{
		{"MapDispatch", func(tr *Tracer) { tr.MapDispatch("map-0000", 3, 1, 4, 2, 4<<23, 2<<23, true) }},
		{"TaskDone", func(tr *Tracer) { tr.TaskDone("map-0000", 3, 4<<23) }},
		{"FaultDetect", func(tr *Tracer) { tr.FaultDetect(3) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := New(sim.New()).ForJob("j0000")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%(1<<16) == 0 {
					tr.st.events = tr.st.events[:0]
				}
				c.emit(tr)
			}
		})
	}
}

// BenchmarkWriteJSONL encodes every kind's events, repeated to about
// 10,000 events in same-instant runs.
func BenchmarkWriteJSONL(b *testing.B) {
	one := emitEveryKind()
	var events []Event
	for len(events) < 10000 {
		events = append(events, one...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteJSONL(io.Discard, events); err != nil {
			b.Fatal(err)
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
