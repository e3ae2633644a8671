package trace

import (
	"io"
	"math"
	"strconv"
)

// jsonlBlock is the size at which WriteJSONL hands its buffer to the
// writer.
const jsonlBlock = 64 << 10

// WriteJSONL writes events as JSON Lines, one object per event. The
// encoding is hand-rolled so output bytes are a pure function of the
// event stream: fixed field order (t, kind, node, task, then each Arg in
// emit order), shortest-round-trip float formatting, no map iteration.
// Same seed ⇒ same events ⇒ same bytes, serial or parallel.
//
// Events come in same-instant runs, so the previous event's formatted
// "t" is reused while At keeps the same bits (bits, not ==, keep −0 and
// +0 apart).
func WriteJSONL(w io.Writer, events []Event) error {
	buf := make([]byte, 0, jsonlBlock+1024)
	var lastAt uint64
	var lastT []byte
	for i := range events {
		e := &events[i]
		buf = append(buf, `{"t":`...)
		if at := math.Float64bits(float64(e.At)); lastT == nil || at != lastAt {
			start := len(buf)
			buf = appendFloat(buf, float64(e.At))
			lastAt, lastT = at, append(lastT[:0], buf[start:]...)
		} else {
			buf = append(buf, lastT...)
		}
		buf = appendEvent(buf, e)
		if len(buf) >= jsonlBlock {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendEvent appends everything of an event's line after its "t".
func appendEvent(b []byte, e *Event) []byte {
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	if e.Job != "" {
		// Workload runs only: solo traces stay byte-identical.
		b = append(b, `,"job":`...)
		b = appendQuoted(b, e.Job)
	}
	if e.Node != NoNode {
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(e.Node), 10)
	}
	if e.Task != "" {
		b = append(b, `,"task":`...)
		b = appendQuoted(b, e.Task)
	}
	for i := range e.Args {
		b = appendArg(b, &e.Args[i])
	}
	b = append(b, '}', '\n')
	return b
}

// appendQuoted appends s as strconv.AppendQuote does. Plain printable
// ASCII, with no quote or backslash, quotes as itself, so only other
// strings take the general path.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendArg appends `,"key":value`. Keys are code-fixed identifiers that
// never need escaping; string values are quoted properly.
func appendArg(b []byte, a *Arg) []byte {
	b = append(b, ',', '"')
	b = append(b, a.Key...)
	b = append(b, '"', ':')
	switch a.kind {
	case argInt:
		b = strconv.AppendInt(b, a.i, 10)
	case argFloat:
		b = appendFloat(b, a.f)
	case argStr:
		b = appendQuoted(b, a.s)
	case argBool:
		if a.i != 0 {
			b = append(b, "true"...)
		} else {
			b = append(b, "false"...)
		}
	}
	return b
}

// appendFloat formats with 'g' and the shortest precision that
// round-trips — deterministic for any given float64 bit pattern.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
