package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/sim"
)

// layer is a simulator module whose public functions the benchmark times.
type layer int

const (
	layerTrace layer = iota
	layerDram
	layerMemctrl
	layerCore
	numLayers
)

var layerNames = [numLayers]string{"trace", "dram", "memctrl", "core"}

// batch is how many accesses each timed phase covers: long enough that the
// two clock reads per phase vanish against the work, short enough that the
// buffers stay in cache.
const batch = 4096

// sampleMask picks every 64th DTL.Access call for individual timing.
const sampleMask = 63

// probe times calls into each layer from the benchmark's own loops and keeps
// the spans in memory until the run ends. A nil *probe is an untraced pass:
// every method is a no-op, so traced and untraced passes share one loop.
type probe struct {
	epoch time.Time
	spans []span
	pass  int // index of the open pass span, the parent of its children

	busy     [numLayers]time.Duration
	loop     time.Duration // summed wall time of traced passes
	accesses int64         // simulated accesses in traced passes

	migrating, idle []time.Duration // sampled DTL.Access durations
	inflight        int64           // Migrator().Outstanding() summed over samples

	runners map[string][]time.Duration // one entry per runner call
	records map[string][]float64       // layer counters, one per traced pass
}

// span is one timed interval; parent indexes spans, -1 for a pass.
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

func newProbe() *probe {
	return &probe{epoch: time.Now(), runners: map[string][]time.Duration{}, records: map[string][]float64{}}
}

func (p *probe) mark() time.Duration {
	if p == nil {
		return 0
	}
	return time.Since(p.epoch)
}

// lap charges the time since t0 to layer l and returns the current mark.
func (p *probe) lap(l layer, t0 time.Duration) time.Duration {
	if p == nil {
		return 0
	}
	t := time.Since(p.epoch)
	p.busy[l] += t - t0
	p.spans = append(p.spans, span{layerNames[l], t0, t, p.pass})
	return t
}

// runner records one experiment runner call that started at t0.
func (p *probe) runner(id string, t0 time.Duration) {
	if p == nil {
		return
	}
	t := time.Since(p.epoch)
	p.runners[id] = append(p.runners[id], t-t0)
	p.spans = append(p.spans, span{id, t0, t, p.pass})
}

// record adds one traced pass's value of a layer counter.
func (p *probe) record(name string, v float64) {
	if p != nil {
		p.records[name] = append(p.records[name], v)
	}
}

func (p *probe) beginPass(name string) {
	p.pass = len(p.spans)
	p.spans = append(p.spans, span{name, p.mark(), 0, -1})
}

func (p *probe) endPass(accesses int64) {
	s := &p.spans[p.pass]
	s.end = p.mark()
	p.loop += s.end - s.start
	p.accesses += accesses
}

// access issues one DTL access, timing it individually when i is a sample
// index and bucketing the time by whether migrations were in flight.
func (p *probe) access(d *core.DTL, i int, hpa dram.HPA, write bool, now sim.Time) error {
	if p == nil || i&sampleMask != 0 {
		_, err := d.Access(hpa, write, now)
		return err
	}
	out := d.Migrator().Outstanding()
	t0 := time.Now()
	_, err := d.Access(hpa, write, now)
	dt := time.Since(t0)
	if out > 0 {
		p.migrating = append(p.migrating, dt)
	} else {
		p.idle = append(p.idle, dt)
	}
	p.inflight += int64(out)
	return err
}

// writeSpans writes the spans as Chrome trace_event JSON (open it in
// ui.perfetto.dev or chrome://tracing).
func (p *probe) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range p.spans {
		sep := ","
		if i == len(p.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}%s`+"\n",
			s.name, float64(s.start.Nanoseconds())/1e3, float64((s.end-s.start).Nanoseconds())/1e3, i, s.parent, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
