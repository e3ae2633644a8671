package trace

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current encoders")

// oddName holds every byte class a quoted string can meet: a quote, a
// backslash, a control character, DEL, non-ASCII runes and a byte that
// is not UTF-8.
const oddName = "j\"q\\b\x01\x7fé日\xff"

// emitEveryKind emits every kind through its emit method, from the root
// view and from two job views, at instants that repeat (same-instant
// runs) and at instants whose formatting differs. Heartbeats land on
// sparse node IDs. Strings with one byte class each follow, then two
// hand-built events at −0 and +0 close the stream.
func emitEveryKind() []Event {
	eng := sim.New()
	root := New(eng)
	job := root.ForJob("j0001")
	odd := root.ForJob(oddName)
	every := func(tr *Tracer, task string, node cluster.NodeID, f float64) {
		tr.SizerDecision(node, f, 2, 10, 64, 3)
		tr.TaskBind(task, node, 3, 2)
		tr.MapDispatch(task, node, 1, 3, 2, 3<<23, 1<<23, true)
		tr.ReduceDispatch("reduce-0000", node+1, 4<<20)
		tr.Commit(node, 3, 1<<20)
		tr.Heartbeat(node, f, float64(node+1)*(1<<20), false)
		tr.ReducePlace(0, node+1, f, 3, true)
		tr.FaultInject(node+2, sim.Duration(f))
		tr.FaultDetect(node + 2)
		tr.FaultDetect(NoNode)
		tr.FaultRecover(node+2, true)
		tr.NetFlowStart(task, node, -1, 1<<20, true)
		tr.NetFlowEnd(task, node, 1<<19, false, sim.Duration(f), true)
		tr.NodeJoin(node+3, 2)
		tr.NodeDrain(node+3, sim.Duration(f), true)
		tr.NodeRelease(node+3, 1)
		tr.Autoscale("scale-out", node+3, 14, 16)
		tr.Autoscale("scale-in", NoNode, 0, 16)
		tr.TaskDone(task, node, 3<<23)
		tr.TaskKill("reduce-0000", node+1, false)
	}
	floats := []float64{0, 2, 0.1 + 0.2, 5e-324, 1e-7, 1e300, math.MaxFloat64, -2.5, 1e21, 123456}
	every(root, "map-0000", 0, floats[0])
	for i, at := range []sim.Time{1e-7, 0.30000000000000004, 0.30000000000000004, 5, 1e6, 123456789.125, 1e21, 1e21} {
		i, f := i, floats[(i+1)%len(floats)]
		eng.At(at, "emit", func() {
			switch i % 3 {
			case 0:
				every(job, "map-0001", cluster.NodeID(2+1000*i), f)
			case 1:
				every(odd, oddName, cluster.NodeID(40+i), f)
			default:
				every(root, "", 5000, f)
			}
		})
	}
	eng.At(2e21, "unfinished", func() {
		job.MapDispatch("map-0002", 6, 2, 1, 1, 1<<23, 0, false)
		job.ReduceDispatch("reduce-0001", 6, 1<<20)
	})
	eng.At(3e21, "strings", func() {
		// One byte class per string, so each takes its own quoting path.
		for _, s := range []string{`q"uote`, `back\slash`, "ctl\x01", "tab\t", "us\x1f", "del\x7f", "é", "日本", "\xff", "plain ~ASCII!"} {
			root.ForJob(s).TaskDone(s, 7, 1)
			root.Autoscale(s, 7, 1, 2)
		}
		// A node-less heartbeat is counted but not listed.
		root.Heartbeat(NoNode, 1, 1<<20, true)
	})
	eng.Run()
	events := append([]Event(nil), root.Events()...)
	return append(events,
		Event{At: sim.Time(math.Copysign(0, -1)), Kind: KindFaultDetect, Node: 1},
		Event{At: 0, Kind: KindFaultDetect, Node: 1, Task: "plain ~ASCII!"})
}

// TestEveryKindGolden pins the bytes of all three encoders for every
// kind: zero-arg events, float args and instants that are 0, integral,
// tiny and huge, job and task strings that need escaping, and sparse
// node IDs in the timeline's heartbeat summary.
func TestEveryKindGolden(t *testing.T) {
	events := emitEveryKind()
	var jsonl, perfetto bytes.Buffer
	if err := WriteJSONL(&jsonl, events); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&perfetto, events); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"every-kind.jsonl", jsonl.Bytes()},
		{"every-kind.perfetto.json", perfetto.Bytes()},
		{"every-kind.timeline.txt", []byte(RenderTimeline(events))},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: output differs from the golden (%d bytes, want %d); rerun with -update only if the change is intended",
				g.file, len(g.got), len(want))
		}
	}
}
