package telemetry

import (
	"fmt"
	"io"
)

// TraceStream is a streaming trace sink: attached to a Tracer with
// AttachStream, it renders every closed power span and every structured
// event to w the moment the tracer records it, with the same alloc-free
// append-buffer discipline as StreamSampler.
//
// Streaming does not depend on the event ring: the tracer still fills its
// ring while a stream is attached, but a long run whose point events
// overflow the ring's capacity still produces a complete JSONL/CSV trace,
// because each event was written before it could be evicted. Records
// appear in completion order — events when emitted, power spans when the
// rank leaves the state (so a span's start_ns can precede the at_ns of
// records written before it).
//
// The Chrome trace_event format is a single JSON document and cannot
// stream; NewTraceStream rejects FormatChrome.
type TraceStream struct {
	w      io.Writer
	format TraceFormat
	buf    []byte // reused row buffer
	rows   int
	err    error
}

// NewTraceStream builds a streaming sink rendering format to w. The caller
// owns w's lifetime (and any buffering); Err reports the first write error.
func NewTraceStream(w io.Writer, format TraceFormat) (*TraceStream, error) {
	if format == FormatChrome {
		return nil, fmt.Errorf("telemetry: chrome trace format cannot stream (use WriteChromeTrace at finish)")
	}
	ts := &TraceStream{w: w, format: format}
	if format == FormatCSV {
		if _, err := io.WriteString(w, eventsCSVHeader); err != nil {
			ts.err = err
		}
	}
	return ts, nil
}

// span renders one closed power span. Write errors are sticky: after the
// first failure the stream goes quiet and Err reports the cause.
func (ts *TraceStream) span(t *Tracer, s PowerSpan) {
	if ts == nil || ts.err != nil {
		return
	}
	switch ts.format {
	case FormatJSONL:
		ts.buf = appendPowerJSONL(ts.buf[:0], t.RankName(s.Rank), t.StateName(s.State), s)
	default:
		ts.buf = appendPowerCSV(ts.buf[:0], t.StateName(s.State), s)
	}
	ts.write()
}

// event renders one structured event.
func (ts *TraceStream) event(ev Event) {
	if ts == nil || ts.err != nil {
		return
	}
	switch ts.format {
	case FormatJSONL:
		ts.buf = appendEventJSONL(ts.buf[:0], ev)
	default:
		ts.buf = appendEventCSV(ts.buf[:0], ev)
	}
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
