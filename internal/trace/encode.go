package trace

import (
	"fmt"
	"io"
	"strconv"
)

// This file renders trace snapshots in two interchange formats:
//
//   - JSONL: one JSON object per event, the stable machine-readable dump
//     of `ctsan scenario trace`. Zero-valued fields are omitted, floats are
//     rendered with strconv's shortest round-trip formatting, and field
//     order is fixed — so the bytes are a pure function of the events,
//     which is what lets the golden and differential worker-count tests
//     pin trace determinism (rule 6) at the byte level.
//   - Chrome trace_event JSON: the array-of-events format chrome://tracing
//     and Perfetto load. Every record becomes an instant event with the
//     replica as pid and the process as tid, so one replica renders as
//     one process row group with a per-host timeline.

// appendFloat renders f in shortest round-trip form ('g', -1), which is
// deterministic across platforms for a given bit pattern.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendJSONL renders one event as a JSONL line (without the newline).
func appendJSONL(b []byte, rep int, e Event) []byte {
	b = append(b, `{"rep":`...)
	b = strconv.AppendInt(b, int64(rep), 10)
	b = append(b, `,"t":`...)
	b = appendFloat(b, e.T)
	b = append(b, `,"k":"`...)
	b = append(b, e.Kind.Name()...)
	b = append(b, '"')
	if e.P != 0 {
		b = append(b, `,"p":`...)
		b = strconv.AppendInt(b, int64(e.P), 10)
	}
	if e.Q != 0 {
		b = append(b, `,"q":`...)
		b = strconv.AppendInt(b, int64(e.Q), 10)
	}
	if e.A != 0 {
		b = append(b, `,"a":`...)
		b = strconv.AppendInt(b, e.A, 10)
	}
	if e.B != 0 {
		b = append(b, `,"b":`...)
		b = strconv.AppendInt(b, e.B, 10)
	}
	if e.X != 0 {
		b = append(b, `,"x":`...)
		b = appendFloat(b, e.X)
	}
	if e.S != "" {
		b = append(b, `,"s":`...)
		b = strconv.AppendQuote(b, e.S)
	}
	return append(b, '}')
}

// WriteJSONL writes every event of the snapshot as one JSONL line
// carrying the replica index. If events were dropped by ring wrap-around
// a leading meta line reports the truncation, so a bounded dump is never
// mistaken for a complete one.
func (tr *Trace) WriteJSONL(w io.Writer, rep int) error {
	var b []byte
	if tr.Dropped > 0 {
		b = append(b, `{"rep":`...)
		b = strconv.AppendInt(b, int64(rep), 10)
		b = append(b, `,"meta":"ring-truncated","dropped":`...)
		b = strconv.AppendUint(b, tr.Dropped, 10)
		b = append(b, "}\n"...)
	}
	for _, e := range tr.Events {
		b = appendJSONL(b, rep, e)
		b = append(b, '\n')
		if len(b) >= 1<<16 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err := w.Write(b)
	return err
}

// chromeName renders the display name of an event for the Chrome format.
func chromeName(e Event) string {
	switch e.Kind {
	case KindSend, KindDeliver, KindDrop:
		return e.Kind.Name() + " " + e.S
	case KindPhase:
		return "phase " + e.S
	default:
		return e.Kind.Name()
	}
}

// appendChromeEvent renders one record as a trace_event instant. ts is in
// microseconds per the format; simulated milliseconds scale by 1000.
func appendChromeEvent(b []byte, rep int, e Event) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, chromeName(e))
	b = append(b, `,"ph":"i","s":"t","pid":`...)
	b = strconv.AppendInt(b, int64(rep), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.P), 10)
	b = append(b, `,"ts":`...)
	b = appendFloat(b, e.T*1000)
	b = append(b, `,"args":{`...)
	first := true
	field := func(name string) {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, `":`...)
	}
	if e.Q != 0 {
		field("q")
		b = strconv.AppendInt(b, int64(e.Q), 10)
	}
	if e.A != 0 {
		field("a")
		b = strconv.AppendInt(b, e.A, 10)
	}
	if e.B != 0 {
		field("b")
		b = strconv.AppendInt(b, e.B, 10)
	}
	if e.X != 0 {
		field("x")
		b = appendFloat(b, e.X)
	}
	if e.S != "" {
		field("s")
		b = strconv.AppendQuote(b, e.S)
	}
	return append(b, "}}"...)
}

// ChromeWriter streams multiple replica snapshots into one Chrome
// trace_event document: Begin, any number of Add calls, End. The output
// loads in Perfetto / chrome://tracing with one pid per replica and one
// tid per process.
type ChromeWriter struct {
	w     io.Writer
	first bool
	err   error
}

// NewChromeWriter opens the document ({"traceEvents":[).
func NewChromeWriter(w io.Writer) (*ChromeWriter, error) {
	cw := &ChromeWriter{w: w, first: true}
	_, cw.err = io.WriteString(w, `{"traceEvents":[`)
	return cw, cw.err
}

// Add appends every event of one replica snapshot.
func (cw *ChromeWriter) Add(rep int, tr *Trace) error {
	if cw.err != nil {
		return cw.err
	}
	var b []byte
	for _, e := range tr.Events {
		if !cw.first {
			b = append(b, ',')
		}
		cw.first = false
		b = append(b, '\n')
		b = appendChromeEvent(b, rep, e)
		if len(b) >= 1<<16 {
			if _, cw.err = cw.w.Write(b); cw.err != nil {
				return cw.err
			}
			b = b[:0]
		}
	}
	_, cw.err = cw.w.Write(b)
	return cw.err
}

// Close terminates the document. The display-time unit is microseconds
// of simulated time.
func (cw *ChromeWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	_, cw.err = io.WriteString(cw.w, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return cw.err
}

// String renders one event as a human-readable line (the explain mode's
// format): fixed-width time, kind, and kind-specific detail.
func (e Event) String() string {
	detail := ""
	switch e.Kind {
	case KindSend, KindDeliver:
		detail = fmt.Sprintf("p%d→p%d %s", from(e), to(e), e.S)
	case KindDrop:
		reason := [...]string{DropPartition: "partition", DropLinkLoss: "link-loss",
			DropFailedSend: "failed-send", DropDown: "receiver-down"}[e.B]
		detail = fmt.Sprintf("p%d→p%d %s (%s)", from(e), to(e), e.S, reason)
	case KindTimerArm:
		detail = fmt.Sprintf("p%d due=%g", e.P, e.X)
	case KindTimerStop, KindTimerFire, KindCrash, KindRecover:
		detail = fmt.Sprintf("p%d", e.P)
	case KindLinkSet:
		detail = fmt.Sprintf("p%d→p%d loss=%g", e.P, e.Q, e.X)
	case KindLinkClear:
		detail = fmt.Sprintf("p%d→p%d", e.P, e.Q)
	case KindPause:
		detail = fmt.Sprintf("p%d dur=%g", e.P, e.X)
	case KindPhase:
		detail = fmt.Sprintf("%q", e.S)
	case KindHBEmit:
		detail = fmt.Sprintf("p%d seq=%d", e.P, e.A)
	case KindHBRecv:
		detail = fmt.Sprintf("p%d from p%d seq=%d", e.P, e.Q, e.A)
	case KindSuspect:
		detail = fmt.Sprintf("p%d suspects p%d (last msg at %g, silent %g ms)", e.P, e.Q, e.X, e.T-e.X)
	case KindTrust:
		detail = fmt.Sprintf("p%d trusts p%d again", e.P, e.Q)
	case KindPropose:
		detail = fmt.Sprintf("p%d cid=%d val=%d", e.P, e.A, e.B)
	case KindRound:
		detail = fmt.Sprintf("p%d cid=%d round=%d coord=p%d", e.P, e.A, e.B, e.Q)
	case KindEstimate:
		detail = fmt.Sprintf("p%d cid=%d round=%d to coord p%d", e.P, e.A, e.B, e.Q)
	case KindProposal:
		detail = fmt.Sprintf("p%d cid=%d round=%d val=%g", e.P, e.A, e.B, e.X)
	case KindAck:
		ok := "ack"
		if e.X == 0 {
			ok = "nack"
		}
		detail = fmt.Sprintf("p%d cid=%d round=%d %s to p%d", e.P, e.A, e.B, ok, e.Q)
	case KindDecide:
		detail = fmt.Sprintf("p%d cid=%d round=%d val=%g", e.P, e.A, e.B, e.X)
	case KindSchedule:
		detail = fmt.Sprintf("due=%g", e.X)
	}
	if detail == "" {
		return fmt.Sprintf("%12.6f  %-10s", e.T, e.Kind.Name())
	}
	return fmt.Sprintf("%12.6f  %-10s %s", e.T, e.Kind.Name(), detail)
}

// from/to resolve the directional endpoints of message events: Send and
// Drop-at-send record P = sender, Deliver and Drop-at-receive record
// P = receiver with Q = sender.
func from(e Event) int32 {
	if e.Kind == KindDeliver || (e.Kind == KindDrop && e.B == DropDown) {
		return e.Q
	}
	return e.P
}

func to(e Event) int32 {
	if e.Kind == KindDeliver || (e.Kind == KindDrop && e.B == DropDown) {
		return e.P
	}
	return e.Q
}
