package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"dtl/internal/sim"
)

// StreamSampler writes one CSV row per sample straight to an io.Writer
// instead of accumulating rows in registry memory. Long-horizon runs (the
// 6-hour schedules sample tens of thousands of rows) stream at O(1) memory,
// and the file is complete up to the last flushed row even if the run dies.
//
// The column set is fixed lazily at the first sample: the header is emitted
// then, covering every metric registered so far. Metrics registered after
// the header is fixed cannot appear in the file; rows keep rendering the
// original columns (registration only appends, so the captured columns
// remain a stable prefix of the registry) and the late registration is
// rejected with an error from Finish, so a run that silently dropped a
// metric cannot pass for a complete one. Experiments register everything
// during construction, before the first sampling tick, so in practice the
// header covers all metrics.
type StreamSampler struct {
	r       *Registry
	w       io.Writer
	cols    int    // column count captured at first sample; 0 = header pending
	names   int    // registry name count when the header was fixed
	buf     []byte // reused row buffer; rows are built here then written out
	rows    int
	err     error
	lateErr error // first late metric registration observed
}

// StreamTo creates a sampler that renders rows of r's metrics to w. The
// caller owns w's lifetime; Err reports the first write error.
func (r *Registry) StreamTo(w io.Writer) *StreamSampler {
	return &StreamSampler{r: r, w: w}
}

// Sample writes one CSV row of every metric at virtual time now, emitting
// the header first on the initial call. Write errors are sticky: after the
// first failure Sample is a no-op and Err reports the cause.
func (s *StreamSampler) Sample(now sim.Time) {
	if s.err != nil {
		return
	}
	if s.cols == 0 {
		cols := s.r.columns()
		s.cols = len(cols)
		s.names = len(s.r.names)
		if _, s.err = io.WriteString(s.w, "time_ns,"+strings.Join(cols, ",")+"\n"); s.err != nil {
			return
		}
	}
	if s.lateErr == nil && len(s.r.names) > s.names {
		s.lateErr = fmt.Errorf("telemetry: %d metric(s) registered after the streaming header was fixed (first: %q); their samples cannot appear in this CSV",
			len(s.r.names)-s.names, s.r.names[s.names])
	}
	buf := s.buf[:0]
	buf = strconv.AppendInt(buf, int64(now), 10)
	emitted := 0
	for _, n := range s.r.names {
		if emitted >= s.cols {
			break // registered after the header was fixed
		}
		e := s.r.metrics[n]
		switch e.kind {
		case kindCounter:
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, e.counter.Value(), 10)
			emitted++
		case kindGauge:
			buf = appendSampleValue(append(buf, ','), e.gauge.Value())
			emitted++
		default:
			if emitted+2 > s.cols {
				emitted = s.cols
				break
			}
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, e.timer.Count(), 10)
			buf = appendSampleValue(append(buf, ','), e.timer.Mean())
			emitted += 2
		}
	}
	buf = append(buf, '\n')
	s.buf = buf
	if _, err := s.w.Write(buf); err != nil {
		s.err = err
		return
	}
	s.rows++
}

// appendSampleValue renders one cell without allocating: integral values as
// integers, others in shortest round-trip form, NaN as an empty cell.
func appendSampleValue(buf []byte, v float64) []byte {
	if math.IsNaN(v) {
		return buf
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// Start schedules Sample every period on the engine, starting one period
// from now, until the returned cancel function is called.
func (s *StreamSampler) Start(eng *sim.Engine, period sim.Time) (cancel func()) {
	return eng.Every(period, func(now sim.Time) { s.Sample(now) })
}

// Finish emits the header if no sample ever fired (a run shorter than one
// sampling period still produces a well-formed, empty CSV) and reports the
// first write error, or else the first late metric registration (the file
// itself stays well-formed in that case — every row has the header's
// columns — but it is missing the late metrics).
func (s *StreamSampler) Finish() error {
	if s.err == nil && s.cols == 0 {
		cols := s.r.columns()
		s.cols = len(cols)
		s.names = len(s.r.names)
		_, s.err = io.WriteString(s.w, "time_ns,"+strings.Join(cols, ",")+"\n")
	}
	if s.err != nil {
		return s.err
	}
	return s.lateErr
}

// Rows reports how many data rows have been written.
func (s *StreamSampler) Rows() int { return s.rows }

// Err reports the first write error encountered, or nil.
func (s *StreamSampler) Err() error { return s.err }
