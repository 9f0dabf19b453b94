package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/experiments"
	"dtl/internal/memctrl"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
	"dtl/internal/trace"
)

// params size one pass. Zero sizes pick the benchmark's full sizes; the
// tests shrink them.
type params struct {
	seed     int64
	workdir  string   // schedule writes its artifacts under it
	accesses int      // selfrefresh and replay accesses per pass
	quick    bool     // schedule at quick scale
	runners  []string // suite runner ids; nil runs them all
}

// pass is one set-up instance of a workload. run is the timed region; finish
// collects the simulated outputs after the timer stops and checks the
// invariants that hold at every seed.
type pass interface {
	run(pr *probe) (attempted, failed int64)
	finish() (outputs, error)
}

type workload struct {
	name string
	// accesses marks workloads whose attempted operations are simulated
	// memory accesses (the rest count runner calls).
	accesses bool
	// inputs is how many inputs a run simulates, each from its own seed
	// (see seeds). Host cost follows the generated trace, so one input
	// would measure the trace as much as the simulator: schedule passes take
	// 2.5-3.3 s depending on the seed. The mean over several inputs does not.
	inputs int
	setup  func(params) (pass, error)
	// traced, when set, measures extra per-layer numbers after a traced
	// pass, given the paired untraced pass's seconds and outputs.
	traced func(p params, pr *probe, untracedWall float64, untraced outputs) error
}

// seedStride separates the seeds of one run's inputs, so runs at -seed values
// below it never share an input.
const seedStride = 1000

// seeds are the seeds of the inputs a run at -seed seed simulates: the seed
// itself, then seed+1000, seed+2000, ...
func (w workload) seeds(seed int64) []int64 {
	out := make([]int64, w.inputs)
	for k := range out {
		out[k] = seed + int64(k)*seedStride
	}
	return out
}

// workloads are the benchmark's workloads in presentation order.
var workloads = []workload{
	{
		// dtlsim -exp all -quick without fig14 and fig15, whose loop
		// selfrefresh measures: every other experiment the suite runs.
		name:   "suite",
		inputs: 6,
		setup:  setupSuite,
	},
	{
		// The Fig. 14 headline configuration at per-call resolution; the
		// migrator dominates it.
		name:     "selfrefresh",
		accesses: true,
		inputs:   48,
		setup:    setupSelfRefresh,
	},
	{
		// No DTL: trace generation and memctrl do all the work, so it is the
		// control for migrator changes.
		name:     "replay",
		accesses: true,
		inputs:   4,
		setup:    setupReplay,
	},
	{
		// Allocation churn, drains, retirement, Park and the rack fabric
		// with every telemetry sink on, and no hotness engine.
		name:   "schedule",
		inputs: 6,
		setup:  setupSchedule,
		traced: sinksOverhead,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func runnersByID(ids []string) ([]experiments.Runner, error) {
	rs := make([]experiments.Runner, 0, len(ids))
	for _, id := range ids {
		r, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// runEach calls RunAll one runner at a time, which is what RunAll does
// serially for the whole list, so a traced pass can time each call.
func runEach(pr *probe, runners []experiments.Runner, opts func(experiments.Runner) experiments.Options) []experiments.Result {
	out := make([]experiments.Result, len(runners))
	for i, r := range runners {
		t0 := pr.mark()
		out[i] = experiments.RunAll([]experiments.Runner{r}, opts(r), 1)[0]
		pr.runner(r.ID, t0)
	}
	return out
}

// resultOutputs formats each runner's metrics under its id.
func resultOutputs(runners []experiments.Runner, results []experiments.Result, out outputs) error {
	for i, r := range runners {
		res := results[i]
		if res.Canceled {
			return fmt.Errorf("%s canceled: %s", r.ID, res.Err)
		}
		m, err := floats(res.Metrics)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		out[r.ID] = m
	}
	return nil
}

func canceled(results []experiments.Result) int64 {
	var n int64
	for _, r := range results {
		if r.Canceled {
			n++
		}
	}
	return n
}

// --- suite ---------------------------------------------------------------

type suitePass struct {
	runners []experiments.Runner
	opts    experiments.Options
	results []experiments.Result
}

// suiteSkipped are the quick runners the suite leaves out. Each replays the
// selfrefresh loop at four configurations, 4M accesses each; together they
// are all but 2.6-2.8 s of a quick suite that takes 41-64 s depending on the
// seed.
var suiteSkipped = []string{"fig14", "fig15"}

func setupSuite(p params) (pass, error) {
	var rs []experiments.Runner
	for _, r := range experiments.All() {
		if !slices.Contains(suiteSkipped, r.ID) {
			rs = append(rs, r)
		}
	}
	if p.runners != nil {
		var err error
		if rs, err = runnersByID(p.runners); err != nil {
			return nil, err
		}
	}
	return &suitePass{runners: rs, opts: experiments.Options{Quick: true, Seed: p.seed, Parallel: 1}}, nil
}

func (s *suitePass) run(pr *probe) (int64, int64) {
	s.results = runEach(pr, s.runners, func(experiments.Runner) experiments.Options { return s.opts })
	return int64(len(s.runners)), canceled(s.results)
}

func (s *suitePass) finish() (outputs, error) {
	out := outputs{}
	return out, resultOutputs(s.runners, s.results, out)
}

// --- selfrefresh ---------------------------------------------------------

// srGapNs spaces accesses 2 ns apart: one 64 B line every 2 ns is the
// >30 GB/s device bandwidth Fig. 14 replays at.
const srGapNs = 2

// A selfrefresh pass replays srAccesses, a quarter of Fig. 14's quick
// horizon: migration windows pile up as the horizon grows, so at the full
// fig14Accesses one seed's pass takes 3.2 s and another's 7.3 s, while at
// srAccesses they take 0.30-0.42 s.
const (
	srAccesses    = 1_000_000
	fig14Accesses = 4_000_000
)

// srPass drives the Fig. 14 headline configuration (26gib-5grp) through
// public API only; at fig14Accesses its saving equals Fig14's
// saving_26gib-5grp.
type srPass struct {
	d           *core.DTL
	mix         *trace.Mixed
	base        dram.HPA
	activeRanks int
	n           int
	warmup      sim.Time
	horizon     sim.Time
	buf         []trace.Access

	w0Standby, w0SR, w0MPSM float64 // background energy at the end of warm-up
	standby, selfRef, mpsm  float64 // over the measurement half
}

func setupSelfRefresh(p params) (pass, error) {
	g := dram.Geometry{Channels: 4, RanksPerChannel: 8, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 2 * dram.GiB}
	c := core.DefaultConfig(g)
	c.ProfilingWindow = 20_000     // 20 us, Fig. 14's time-dilated window
	c.ProfilingThreshold = 100_000 // 100 us
	c.ReserveRankGroups = 2
	d, err := core.New(c)
	if err != nil {
		return nil, err
	}
	const allocGiB = 26
	apps := []string{"data-analytics", "data-caching", "data-serving",
		"graph-analytics", "in-memory-analytics", "media-streaming"}
	per := int64(allocGiB / len(apps))
	var profiles []trace.Profile
	var total int64
	for i, app := range apps {
		pr, err := trace.ProfileByName(app)
		if err != nil {
			return nil, err
		}
		size := per
		if i == len(apps)-1 {
			size = allocGiB - total
		}
		pr.FootprintBytes = size << 30
		pr.HotBias = 0.99
		pr.UntouchedFraction = 0.10
		profiles = append(profiles, pr)
		total += size
	}
	mix, err := trace.NewMixed(profiles, p.seed)
	if err != nil {
		return nil, err
	}
	alloc, err := d.AllocateVM(1, 0, allocGiB<<30, 0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(alloc.AUBases); i++ {
		if alloc.AUBases[i] != alloc.AUBases[i-1]+dram.HPA(c.AUBytes) {
			return nil, fmt.Errorf("selfrefresh: AU space not contiguous")
		}
	}
	n := p.accesses
	if n == 0 {
		n = srAccesses
	}
	horizon := sim.Time(n) * srGapNs
	s := &srPass{
		d: d, mix: mix, base: alloc.AUBases[0],
		activeRanks: d.ActiveRanksPerChannel() * g.Channels,
		n:           n, warmup: horizon / 2, horizon: horizon,
		buf: make([]trace.Access, batch),
	}
	d.Hotness().Enable(0)
	return s, nil
}

func (s *srPass) run(pr *probe) (int64, int64) {
	dev := s.d.Device()
	var failed int64
	now := sim.Time(0)
	for i := 0; i < s.n; i += batch {
		k := min(batch, s.n-i)
		t := pr.mark()
		for j := 0; j < k; j++ {
			s.buf[j] = s.mix.Next()
		}
		t = pr.lap(layerTrace, t)
		for j, a := range s.buf[:k] {
			if err := pr.access(s.d, i+j, s.base+dram.HPA(a.Addr), a.Write, now); err != nil {
				failed++
			}
			now += srGapNs
			if now == s.warmup {
				dev.AccountUpTo(now)
				s.w0Standby, s.w0SR, s.w0MPSM = dev.BackgroundEnergy()
			}
		}
		pr.lap(layerCore, t)
	}
	s.d.Tick(now)
	dev.AccountUpTo(s.horizon)
	st, sr, mp := dev.BackgroundEnergy()
	s.standby, s.selfRef, s.mpsm = st-s.w0Standby, sr-s.w0SR, mp-s.w0MPSM

	if pr != nil {
		ms, smc, st := s.d.Migrator().Stats(), s.d.SMCStats(), s.d.Stats()
		pr.record("core.mig_enqueued", float64(ms.Enqueued))
		pr.record("core.mig_write_conflicts", float64(ms.WriteConflicts))
		pr.record("core.mig_aborts", float64(ms.Aborts))
		pr.record("core.smc_l1_miss_ratio", smc.L1MissRatio())
		pr.record("core.smc_l2_miss_ratio", smc.L2MissRatio())
		pr.record("core.sr_enters", float64(st.SelfRefreshEnters))
		pr.record("core.sr_exits", float64(st.SelfRefreshExits))
		pr.record("memctrl.wakeups", float64(s.d.Controller().Wakeups()))
	}
	return int64(s.n), failed
}

// saving is Fig. 14's metric, computed with the same float operations as
// the experiment so the two agree bit for bit.
func (s *srPass) saving() float64 {
	baseline := float64(s.activeRanks) * float64(s.horizon-s.warmup)
	if baseline == 0 {
		return 0
	}
	return 1 - (s.standby+s.selfRef)/baseline
}

func (s *srPass) finish() (outputs, error) {
	if err := s.d.CheckInvariants(); err != nil {
		return nil, err
	}
	return outputs{
		"stats": fields(s.d.Stats()),
		"smc":   fields(s.d.SMCStats()),
		"mig":   fields(s.d.Migrator().Stats()),
		"hot":   fields(s.d.Hotness().Stats()),
		"energy": {
			"standby":      fmtFloat(s.standby),
			"selfrefresh":  fmtFloat(s.selfRef),
			"mpsm":         fmtFloat(s.mpsm),
			"active_ranks": strconv.Itoa(s.activeRanks),
			"saving":       fmtFloat(s.saving()),
		},
	}, nil
}

// --- replay --------------------------------------------------------------

// replayPass is the Fig. 2 8-rank baseline as a raw controller replay:
// trace.Mixed.Next → AddressCodec → memctrl.Controller.Access, no DTL.
type replayPass struct {
	n     int
	mix   *trace.Mixed
	codec *dram.AddressCodec
	ctrl  *memctrl.Controller
	buf   []trace.Access
	dpa   []dram.DPA

	rowHits, latSum int64
	channels        []int64
}

func setupReplay(p params) (pass, error) {
	g := dram.Geometry{Channels: 4, RanksPerChannel: 8, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 32 * dram.GiB}
	dev, err := dram.NewDevice(g, dram.DefaultPowerModel(), dram.DefaultTiming())
	if err != nil {
		return nil, err
	}
	profiles := trace.CloudSuite()
	for i := range profiles {
		profiles[i].FootprintBytes = 16 << 30
	}
	mix, err := trace.NewMixed(profiles, p.seed)
	if err != nil {
		return nil, err
	}
	if mix.TotalFootprint() > g.TotalBytes() {
		return nil, fmt.Errorf("replay: footprint %d exceeds device %d", mix.TotalFootprint(), g.TotalBytes())
	}
	n := p.accesses
	if n == 0 {
		n = 24_000_000
	}
	return &replayPass{
		n: n, mix: mix, codec: dev.Codec(), ctrl: memctrl.New(dev),
		buf: make([]trace.Access, batch), dpa: make([]dram.DPA, batch),
		channels: make([]int64, g.Channels),
	}, nil
}

func (r *replayPass) run(pr *probe) (int64, int64) {
	segBytes := r.codec.Geometry().SegmentBytes
	for i := 0; i < r.n; i += batch {
		k := min(batch, r.n-i)
		t := pr.mark()
		for j := 0; j < k; j++ {
			r.buf[j] = r.mix.Next()
		}
		t = pr.lap(layerTrace, t)
		for j, a := range r.buf[:k] {
			dpa := r.codec.Compose(r.codec.RankInterleavedDSN(a.Addr/segBytes), a.Addr%segBytes)
			ch, _ := r.codec.RankOf(dpa)
			r.channels[ch]++
			r.dpa[j] = dpa
		}
		t = pr.lap(layerDram, t)
		for j, a := range r.buf[:k] {
			// 2 GHz at IPC 1, replayed at twice the rate: Instr × 0.25 ns.
			arrive := sim.Time(float64(a.Instr) * 0.25)
			res := r.ctrl.Access(memctrl.Request{Addr: r.dpa[j], Write: a.Write, Arrive: arrive})
			r.latSum += int64(res.Done - arrive)
			if res.RowHit {
				r.rowHits++
			}
		}
		pr.lap(layerMemctrl, t)
	}
	if pr != nil {
		pr.record("memctrl.row_hit_ratio", float64(r.rowHits)/float64(r.n))
		pr.record("memctrl.wakeups", float64(r.ctrl.Wakeups()))
	}
	return int64(r.n), 0
}

func (r *replayPass) finish() (outputs, error) {
	var total int64
	chans := map[string]string{}
	for ch, c := range r.channels {
		total += c
		chans["ch"+strconv.Itoa(ch)] = strconv.FormatInt(c, 10)
	}
	if total != int64(r.n) || r.ctrl.TotalBytes() != int64(r.n)*memctrl.LineBytes {
		return nil, fmt.Errorf("replay: %d accesses mapped and %d bytes moved for %d accesses",
			total, r.ctrl.TotalBytes(), r.n)
	}
	return outputs{
		"replay": {
			"accesses":    strconv.Itoa(r.n),
			"row_hits":    strconv.FormatInt(r.rowHits, 10),
			"lat_sum_ns":  strconv.FormatInt(r.latSum, 10),
			"total_bytes": strconv.FormatInt(r.ctrl.TotalBytes(), 10),
		},
		"channels": chans,
	}, nil
}

// --- schedule ------------------------------------------------------------

var scheduleIDs = []string{"fig12", "faults", "rack"}

// artifacts are the files each schedule runner writes, as dtlserved does.
var artifacts = []string{"trace.jsonl", "metrics.csv", "ledger.json"}

type schedulePass struct {
	runners []experiments.Runner
	opts    experiments.Options
	workdir string
	sinks   bool

	dir     string // this pass's artifact directory, made by run
	err     error
	results []experiments.Result
}

func setupSchedule(p params) (pass, error) {
	rs, err := runnersByID(scheduleIDs)
	if err != nil {
		return nil, err
	}
	return &schedulePass{
		runners: rs, workdir: p.workdir, sinks: true,
		opts: experiments.Options{Quick: p.quick, Seed: p.seed, Parallel: 1},
	}, nil
}

func (s *schedulePass) run(pr *probe) (int64, int64) {
	n := int64(len(s.runners))
	if s.dir, s.err = os.MkdirTemp(s.workdir, "schedule-"); s.err != nil {
		return n, n
	}
	for _, r := range s.runners {
		if s.err = os.Mkdir(filepath.Join(s.dir, r.ID), 0o755); s.err != nil {
			return n, n
		}
	}
	s.results = runEach(pr, s.runners, func(r experiments.Runner) experiments.Options {
		o := s.opts
		if s.sinks {
			dir := filepath.Join(s.dir, r.ID)
			o.TracePath = filepath.Join(dir, artifacts[0])
			o.TraceFormat = telemetry.FormatJSONL
			o.MetricsPath = filepath.Join(dir, artifacts[1])
			o.LedgerPath = filepath.Join(dir, artifacts[2])
		}
		return o
	})
	if pr != nil && s.sinks {
		for i, name := range []string{"telemetry.trace_mib", "telemetry.metrics_mib", "telemetry.ledger_mib"} {
			var bytes int64
			for _, r := range s.runners {
				if fi, err := os.Stat(filepath.Join(s.dir, r.ID, artifacts[i])); err == nil {
					bytes += fi.Size()
				}
			}
			pr.record(name, float64(bytes)/(1<<20))
		}
	}
	return n, canceled(s.results)
}

func (s *schedulePass) finish() (outputs, error) {
	if s.dir != "" {
		defer os.RemoveAll(s.dir)
	}
	if s.err != nil {
		return nil, s.err
	}
	out := outputs{}
	if err := resultOutputs(s.runners, s.results, out); err != nil {
		return nil, err
	}
	if !s.sinks {
		return out, nil
	}
	for _, r := range s.runners {
		sums := map[string]string{}
		for _, a := range artifacts {
			sum, err := fileSHA256(filepath.Join(s.dir, r.ID, a))
			if err != nil {
				return nil, err
			}
			sums[a] = sum
		}
		out[r.ID+".artifacts"] = sums
	}
	return out, nil
}

// sinksOverhead re-runs the schedule once with every sink off; the gap to the
// untraced sinks-on passes is what the telemetry sinks cost. The simulated
// metrics must not change when the sinks are off.
func sinksOverhead(p params, pr *probe, untracedWall float64, untraced outputs) error {
	ps, err := setupSchedule(p)
	if err != nil {
		return err
	}
	off := ps.(*schedulePass)
	off.sinks = false
	t0 := time.Now()
	off.run(nil)
	wall := time.Since(t0).Seconds()
	got, err := off.finish()
	if err != nil {
		return err
	}
	want := outputs{}
	for _, id := range scheduleIDs {
		want[id] = untraced[id]
	}
	if d := diff(got, want); len(d) > 0 {
		return fmt.Errorf("schedule metrics change with the sinks off: %s", d[0])
	}
	pr.record("telemetry.sinks_overhead_s", untracedWall-wall)
	return nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
