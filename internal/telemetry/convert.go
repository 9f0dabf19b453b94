package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"dtl/internal/sim"
)

// Chrome trace_event layout. Each global rank renders as its own "thread"
// so the per-rank power timeline opens directly in Perfetto /
// chrome://tracing; migration queues and point events get dedicated thread
// ids above the rank range.
const (
	chromePID = 0
	// migrationTidBase + channel is the thread of a channel's migration queue.
	migrationTidBase = 10000
	// pointTid is the thread carrying instant events (SMC misses, scrubs...).
	pointTid = 20000
	// attrTid is the thread carrying attribution spans and ledger cells.
	attrTid = 30000
)

// chromeEvent is one trace_event record. Ts and Dur are microseconds, per
// the trace_event format.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func usOf(t sim.Time) float64 { return float64(t) / 1e3 }

// eventsCSVHeader is the fixed column set of the events-CSV format.
const eventsCSVHeader = "record,at_ns,dur_ns,rank,channel,state_or_reason,src,dst\n"

// ConvertTraceFile converts the finished JSONL trace at in to format
// (FormatChrome or FormatCSV), written to out. On error out is removed.
func ConvertTraceFile(in, out string, format TraceFormat) error {
	src, err := os.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(out)
	if err != nil {
		return err
	}
	err = ConvertJSONL(src, dst, format)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
	}
	return err
}

// ConvertJSONL re-encodes a finished JSONL trace read from r as format and
// writes it to w. It accepts exactly the inputs SummarizeJSONL accepts.
//
// FormatChrome makes two passes over r. The first renders the process and
// per-rank thread metadata, then every power span in stream order as a
// complete ("X") event on its rank's thread. The second renders the events
// in stream order: migrations as "X" events on their channel's migration
// thread, attribution spans as "X" and ledger cells as instant events on
// the attribution thread, and everything else as instant ("i") events,
// naming each extra thread the first time it is used.
//
// FormatCSV makes one pass: a fixed header, then one row per record in
// stream order. Power rows carry the span start in at_ns, its length in
// dur_ns and the state name; attr and ledger rows carry the VM in src and
// the energy charge in dst as a float. Absent fields are empty.
func ConvertJSONL(r io.ReadSeeker, w io.Writer, format TraceFormat) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var err error
	switch format {
	case FormatChrome:
		err = convertChrome(r, bw)
	case FormatCSV:
		err = convertCSV(r, bw)
	default:
		err = fmt.Errorf("telemetry: cannot convert a trace to %v", format)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// chromeWriter renders trace_event records one json.Marshal at a time,
// producing the bytes json.Encoder writes for the whole document. Write
// errors stick in the bufio.Writer, and ConvertJSONL reports them from
// Flush.
type chromeWriter struct {
	w   *bufio.Writer
	n   int
	err error
}

func (cw *chromeWriter) add(ev chromeEvent) {
	if cw.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		cw.err = err
		return
	}
	if cw.n > 0 {
		cw.w.WriteByte(',')
	}
	cw.w.Write(b)
	cw.n++
}

func (cw *chromeWriter) thread(tid int, name string) {
	cw.add(chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePID, Tid: tid, Args: map[string]any{"name": name}})
}

func convertChrome(r io.ReadSeeker, w *bufio.Writer) error {
	names := map[int]string{}
	var spans []chromeEvent
	if err := scanJSONL(r, func(rec *jsonlRecord) {
		if rec.Type != "power" {
			return
		}
		names[*rec.Rank] = rec.RankName
		spans = append(spans, chromeEvent{
			Name: rec.State, Cat: "power", Ph: "X",
			Ts: usOf(sim.Time(rec.StartNs)), Dur: usOf(sim.Time(rec.EndNs - rec.StartNs)),
			Pid: chromePID, Tid: *rec.Rank,
		})
	}); err != nil {
		return err
	}
	ranks := make([]int, 0, len(names))
	for rank := range names {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)

	w.WriteString(`{"traceEvents":[`)
	cw := &chromeWriter{w: w}
	cw.add(chromeEvent{Name: "process_name", Ph: "M", Pid: chromePID, Args: map[string]any{"name": "dtlsim"}})
	for _, rank := range ranks {
		cw.thread(rank, "power "+names[rank])
	}
	for _, ev := range spans {
		cw.add(ev)
	}

	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return err
	}
	migThreads := map[int]bool{}
	attrThread := false
	if err := scanJSONL(r, func(rec *jsonlRecord) {
		switch rec.Type {
		case "power":
		case "attr", "ledger":
			if !attrThread {
				attrThread = true
				cw.thread(attrTid, "attribution")
			}
			ev := chromeEvent{
				Name: rec.Reason, Cat: rec.Type, Ph: "X",
				Ts: usOf(sim.Time(rec.AtNs)), Dur: usOf(sim.Time(rec.DurNs)),
				Pid: chromePID, Tid: attrTid, Args: attrArgs(rec),
			}
			if rec.Type == "ledger" {
				ev.Ph, ev.Dur, ev.Scope = "i", 0, "t"
			}
			cw.add(ev)
		case "migration":
			ch := -1
			if rec.Channel != nil {
				ch = *rec.Channel
			}
			if !migThreads[ch] {
				migThreads[ch] = true
				cw.thread(migrationTidBase+ch, fmt.Sprintf("migrations ch%d", ch))
			}
			cw.add(chromeEvent{
				Name: "migrate", Cat: "migration", Ph: "X",
				Ts: usOf(sim.Time(rec.AtNs)), Dur: usOf(sim.Time(rec.DurNs)),
				Pid: chromePID, Tid: migrationTidBase + ch,
				Args: map[string]any{"src": rec.src(), "dst": rec.Dst, "reason": rec.Reason},
			})
		default:
			cw.add(chromeEvent{
				Name: rec.Type, Cat: "event", Ph: "i",
				Ts: usOf(sim.Time(rec.AtNs)), Pid: chromePID, Tid: pointTid, Scope: "t",
				Args: pointArgs(rec),
			})
		}
	}); err != nil {
		return err
	}
	if cw.err != nil {
		return cw.err
	}
	w.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return nil
}

// attrArgs carries an attribution record's full cell through the
// trace_event args.
func attrArgs(rec *jsonlRecord) map[string]any {
	args := map[string]any{
		"vm":     rec.src(),
		"cause":  rec.Reason,
		"lat_ns": rec.DurNs,
		"energy": rec.Energy,
	}
	if rec.Rank != nil {
		args["rank"] = *rec.Rank
	}
	return args
}

// pointArgs carries every field an instant event's record holds.
func pointArgs(rec *jsonlRecord) map[string]any {
	args := map[string]any{}
	if rec.Rank != nil {
		args["rank"] = *rec.Rank
	}
	if rec.Channel != nil {
		args["channel"] = *rec.Channel
	}
	if rec.DurNs != 0 {
		args["dur_ns"] = rec.DurNs
	}
	if rec.Segments != nil {
		args["segments"] = *rec.Segments
	}
	if rec.Count != nil {
		args["count"] = *rec.Count
	}
	if rec.Reason != "" {
		args["reason"] = rec.Reason
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

func convertCSV(r io.Reader, w *bufio.Writer) error {
	w.WriteString(eventsCSVHeader)
	var buf []byte
	return scanJSONL(r, func(rec *jsonlRecord) {
		buf = append(buf[:0], rec.Type...)
		buf = append(buf, ',')
		if rec.Type == "power" {
			buf = strconv.AppendInt(buf, rec.StartNs, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, rec.EndNs-rec.StartNs, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(*rec.Rank), 10)
			buf = append(buf, ',', ',')
			buf = append(buf, csvSafe(rec.State)...)
			w.Write(append(buf, ',', ',', '\n'))
			return
		}
		buf = strconv.AppendInt(buf, rec.AtNs, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rec.DurNs, 10)
		buf = append(buf, ',')
		if rec.Rank != nil {
			buf = strconv.AppendInt(buf, int64(*rec.Rank), 10)
		}
		buf = append(buf, ',')
		if rec.Channel != nil {
			buf = strconv.AppendInt(buf, int64(*rec.Channel), 10)
		}
		buf = append(buf, ',')
		buf = append(buf, csvSafe(rec.Reason)...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rec.src(), 10)
		buf = append(buf, ',')
		if rec.Type == "attr" || rec.Type == "ledger" {
			buf = strconv.AppendFloat(buf, rec.Energy, 'g', -1, 64)
		} else {
			buf = strconv.AppendInt(buf, rec.Dst, 10)
		}
		w.Write(append(buf, '\n'))
	})
}
