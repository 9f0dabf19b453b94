package telemetry

import "io"

// TraceStream is the tracer's one output: attached to a Tracer with
// AttachStream, it renders every closed power span and every structured
// event to w as a JSONL record the moment the tracer records it, with the
// same alloc-free append-buffer discipline as StreamSampler. The tracer
// keeps no copy of the events, so a run of any length produces a complete
// trace, and a killed run leaves every record written before the kill.
// Records appear in completion order — events when emitted, power spans
// when the rank leaves the state (so a span's start_ns can precede the
// at_ns of records written before it).
//
// The Chrome trace_event and events-CSV encodings are derived from a
// finished stream by ConvertJSONL.
type TraceStream struct {
	w    io.Writer
	buf  []byte // reused row buffer
	rows int
	err  error

	// Field memos of appendEventJSONL: the `,"energy":` field of the value
	// whose math.Float64bits is energyBits (empty until the first one), and
	// per event kind (modulo the defined ones) the `,"reason":` field of
	// the reason string key.
	energyBits uint64
	energy     []byte
	reasons    [numEventKinds]struct {
		key   string
		field []byte
	}
}

// NewTraceStream builds a JSONL streaming sink writing to w. The caller
// owns w's lifetime (and any buffering); Err reports the first write error.
func NewTraceStream(w io.Writer) *TraceStream {
	return &TraceStream{w: w}
}

// span renders one closed power span. Write errors are sticky: after the
// first failure the stream goes quiet and Err reports the cause.
func (ts *TraceStream) span(t *Tracer, s PowerSpan) {
	if ts == nil || ts.err != nil {
		return
	}
	ts.buf = appendPowerJSONL(ts.buf[:0], t.RankName(s.Rank), t.StateName(s.State), s)
	ts.write()
}

// event renders one structured event.
func (ts *TraceStream) event(ev *Event) {
	if ts == nil || ts.err != nil {
		return
	}
	ts.buf = ts.appendEventJSONL(ts.buf[:0], ev)
	ts.write()
}

func (ts *TraceStream) write() {
	if _, err := ts.w.Write(ts.buf); err != nil {
		ts.err = err
		return
	}
	ts.rows++
}

// Rows reports how many records have been written.
func (ts *TraceStream) Rows() int { return ts.rows }

// Err reports the first write error encountered, or nil.
func (ts *TraceStream) Err() error {
	if ts == nil {
		return nil
	}
	return ts.err
}
