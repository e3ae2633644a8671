package trace

import (
	"fmt"
	"strings"

	"flexmap/internal/maputil"
)

// RenderTimeline renders the event stream as a chronological text
// timeline — the debugging view for sizing decisions: every Algorithm 1
// decision appears next to the bind/dispatch it produced and the
// completions feeding the next one. Heartbeat samples are summarized per
// node at the end rather than listed (they dominate the event count).
func RenderTimeline(events []Event) string {
	var b strings.Builder
	beats := map[int]int{}
	lastWindow := map[int]float64{}
	for i := range events {
		e := &events[i]
		if e.Kind == KindHeartbeat {
			beats[int(e.Node)]++
			for j := range e.Args {
				if e.Args[j].Key == "window_ips" {
					lastWindow[int(e.Node)] = e.Args[j].f
				}
			}
			continue
		}
		fmt.Fprintf(&b, "t=%9.2f  ", float64(e.At))
		if e.Node != NoNode {
			fmt.Fprintf(&b, "node %-3d ", int(e.Node))
		} else {
			b.WriteString("         ")
		}
		fmt.Fprintf(&b, "%-15s", e.Kind.String())
		if e.Task != "" {
			fmt.Fprintf(&b, " %-12s", e.Task)
		}
		for j := range e.Args {
			a := &e.Args[j]
			switch a.kind {
			case argInt:
				fmt.Fprintf(&b, " %s=%d", a.Key, a.i)
			case argFloat:
				fmt.Fprintf(&b, " %s=%.3g", a.Key, a.f)
			case argStr:
				fmt.Fprintf(&b, " %s=%s", a.Key, a.s)
			case argBool:
				if a.i != 0 {
					fmt.Fprintf(&b, " %s", a.Key)
				}
			}
		}
		b.WriteByte('\n')
	}
	if len(beats) > 0 {
		b.WriteString("heartbeats:")
		// Node-less samples are counted but not listed.
		for _, node := range maputil.SortedKeys(beats) {
			if node >= 0 {
				fmt.Fprintf(&b, " node%d=%d(%.2gMB/s)", node, beats[node], lastWindow[node]/(1<<20))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
