package trace

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// WritePerfetto renders the event stream in the Chrome trace-event JSON
// format, loadable in chrome://tracing and ui.perfetto.dev. One track
// (tid) per node; map/reduce attempts become complete ("X") slices,
// heartbeat window means become counter ("C") series, and everything
// else becomes instant ("i") markers. Output is deterministic: events
// are walked in emission order and the only map (open attempt spans) is
// never ranged — leftovers are drained in sorted key order.
func WritePerfetto(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	pw := &perfettoWriter{bw: bw, open: make(map[string]openSpan)}
	for i := range events {
		pw.event(&events[i])
	}
	pw.drainOpen(events)
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// openSpan is a dispatched attempt awaiting its done/kill event; start
// is in microseconds.
type openSpan struct {
	start float64
	node  int
	cat   string
}

type perfettoWriter struct {
	bw    *bufio.Writer
	open  map[string]openSpan // task@node → dispatch
	first bool
}

func (pw *perfettoWriter) event(e *Event) {
	us := float64(e.At) * 1e6
	switch e.Kind {
	case KindMapDispatch:
		pw.open[spanKey(e.Task, int(e.Node))] = openSpan{start: us, node: int(e.Node), cat: "map"}
	case KindReduceDispatch:
		pw.open[spanKey(e.Task, int(e.Node))] = openSpan{start: us, node: int(e.Node), cat: "reduce"}
	case KindTaskDone, KindTaskKill:
		key := spanKey(e.Task, int(e.Node))
		span, ok := pw.open[key]
		if !ok {
			return
		}
		delete(pw.open, key)
		name := e.Task
		if e.Kind == KindTaskKill {
			name += " (killed)"
		}
		pw.slice(name, span.cat, span.start, us-span.start, span.node, e.Args)
	case KindHeartbeat:
		// The window mean is the signal sizing reads; plot it per node.
		for i := range e.Args {
			if e.Args[i].Key == "window_ips" {
				pw.counter("ips-node"+pad2(int(e.Node)), us, e.Args[i].f)
				break
			}
		}
	default:
		pw.instant(e.Kind.String(), us, int(e.Node), e.Args)
	}
}

// drainOpen emits still-open spans (attempts alive when the run ended,
// e.g. in a failed job) as zero-escape slices closing at the last event.
func (pw *perfettoWriter) drainOpen(events []Event) {
	if len(pw.open) == 0 {
		return
	}
	end := 0.0
	if n := len(events); n > 0 {
		end = float64(events[n-1].At) * 1e6
	}
	keys := make([]string, 0, len(pw.open))
	for k := range pw.open {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		span := pw.open[k]
		pw.slice(k+" (unfinished)", span.cat, span.start, end-span.start, span.node, nil)
	}
}

func spanKey(task string, node int) string {
	return task + "@" + strconv.Itoa(node)
}

// pad2 zero-pads small non-negative ints to two digits so per-node
// counter tracks sort numerically.
func pad2(v int) string {
	if v >= 0 && v < 10 {
		return "0" + strconv.Itoa(v)
	}
	return strconv.Itoa(v)
}

func (pw *perfettoWriter) sep() {
	if pw.first {
		pw.bw.WriteByte(',')
	}
	pw.first = true
}

// slice writes a complete ("X") duration event.
func (pw *perfettoWriter) slice(name, cat string, startUS, durUS float64, node int, args []Arg) {
	pw.sep()
	pw.bw.WriteString(`{"name":`)
	pw.bw.WriteString(strconv.Quote(name))
	pw.bw.WriteString(`,"cat":"` + cat + `","ph":"X","ts":`)
	pw.float(startUS)
	pw.bw.WriteString(`,"dur":`)
	pw.float(durUS)
	pw.pidTid(node)
	pw.args(args)
	pw.bw.WriteByte('}')
}

// counter writes a counter ("C") sample.
func (pw *perfettoWriter) counter(name string, ts, v float64) {
	pw.sep()
	pw.bw.WriteString(`{"name":`)
	pw.bw.WriteString(strconv.Quote(name))
	pw.bw.WriteString(`,"ph":"C","ts":`)
	pw.float(ts)
	pw.bw.WriteString(`,"pid":1,"args":{"value":`)
	pw.float(v)
	pw.bw.WriteString(`}}`)
}

// instant writes a thread-scoped instant ("i") marker.
func (pw *perfettoWriter) instant(name string, ts float64, node int, args []Arg) {
	pw.sep()
	pw.bw.WriteString(`{"name":`)
	pw.bw.WriteString(strconv.Quote(name))
	pw.bw.WriteString(`,"ph":"i","s":"t","ts":`)
	pw.float(ts)
	pw.pidTid(node)
	pw.args(args)
	pw.bw.WriteByte('}')
}

// pidTid writes the pid/tid pair; node-less events land on tid 0.
func (pw *perfettoWriter) pidTid(node int) {
	tid := node
	if tid < 0 {
		tid = 0
	}
	pw.bw.WriteString(`,"pid":1,"tid":`)
	pw.bw.WriteString(strconv.Itoa(tid))
}

func (pw *perfettoWriter) args(args []Arg) {
	if len(args) == 0 {
		return
	}
	pw.bw.WriteString(`,"args":{`)
	buf := make([]byte, 0, 64)
	for i := range args {
		if i > 0 {
			pw.bw.WriteByte(',')
		}
		// appendArg emits a leading comma; skip it.
		buf = appendArg(buf[:0], &args[i])
		pw.bw.Write(buf[1:])
	}
	pw.bw.WriteByte('}')
}

func (pw *perfettoWriter) float(v float64) {
	buf := make([]byte, 0, 32)
	pw.bw.Write(appendFloat(buf, v))
}
