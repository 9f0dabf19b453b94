package experiments

import (
	"fmt"
	"sync"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/metrics"
	"dtl/internal/sim"
	"dtl/internal/trace"
)

// srGeometry is the self-refresh evaluation device: 64 GiB behind 4
// channels x 8 ranks of 2 GiB — the paper's 384 GB server topology scaled
// down 6x so the time-dilated replay converges through the same warm-up
// process (the paper's takes 10-60 s of wall-clock warm-up; see DESIGN.md).
func srGeometry() dram.Geometry {
	return dram.Geometry{
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       2 * dram.GiB,
	}
}

// srConfig is one Fig. 14 configuration.
type srConfig struct {
	label    string
	allocGiB int64
	// reserve pins the active-rank headroom so the configuration matches
	// the paper's fixed 6-rank / 8-rank setups; 0 means "disable
	// power-down entirely" (the 8-rank case, where capacity demand keeps
	// every rank active).
	reserve int
	// untouched is the workload mix's never-accessed share; the paper's
	// configurations are distinct trace mixes with different cold content.
	untouched float64
	paperNote string
}

// srConfigs mirror the paper's 208/224/240 GB (6-rank) and 304 GB (8-rank)
// points: the allocated/active-capacity ratios match (72%/78%/85% on the
// pinned 5-group configuration vs the paper's 72%/78%/83% on 6 of 8 ranks;
// 78% on all-8 vs the paper's 79%). The tightest 6-rank point leaves too
// little unallocated+quiet capacity per channel to fill a victim rank,
// reproducing the paper's missing-bar cases.
func srConfigs() []srConfig {
	return []srConfig{
		{"26gib-5grp", 26, 2, 0.10, "paper 208GB: 20.3% extra savings"},
		{"32gib-5grp", 32, 2, 0.06, "paper 224GB: reduced savings"},
		{"34gib-5grp", 34, 1, 0.03, "paper 240GB: often no self-refresh"},
		{"50gib-8grp", 50, 0, 0.06, "paper 304GB 8-rank: 14.9% savings"},
	}
}

// srRunResult captures the energy split of one configuration's replay.
type srRunResult struct {
	cfg             srConfig
	activeRanks     int // non-MPSM ranks after power-down
	totalRanks      int
	standbyEnergy   float64 // over the measurement span, units x ns
	selfRefEnergy   float64
	mpsmEnergy      float64
	span            sim.Time
	srEnters        int64
	srExits         int64
	warmupSREntries int64
}

// additionalSaving is the Fig. 14 metric: background-energy reduction over
// the ACTIVE ranks relative to keeping them all in standby (power-down
// savings excluded).
func (r srRunResult) additionalSaving() float64 {
	baseline := float64(r.activeRanks) * float64(r.span)
	if baseline == 0 {
		return 0
	}
	return 1 - (r.standbyEnergy+r.selfRefEnergy)/baseline
}

// totalSaving is the Fig. 15 metric: background-energy reduction relative
// to the all-ranks-standby baseline (power-down + self-refresh combined).
func (r srRunResult) totalSaving() float64 {
	baseline := float64(r.totalRanks) * float64(r.span)
	return 1 - (r.standbyEnergy+r.selfRefEnergy+r.mpsmEnergy)/baseline
}

// runSelfRefresh replays a mixed CloudSuite trace against a DTL with the
// hotness engine enabled and measures background energy after warm-up.
//
// Time dilation: the paper's thresholds (0.5 ms window, 50 ms profiling
// threshold) assume multi-minute runs; we scale thresholds and horizon
// together so the phase-duration ratios are preserved (documented in
// DESIGN.md).
func runSelfRefresh(o Options, cfg srConfig) srRunResult {
	g := srGeometry()
	c := core.DefaultConfig(g)
	c.ProfilingWindow = sim.Time(20_000)     // 20 us, time-dilated
	c.ProfilingThreshold = sim.Time(100_000) // 100 us, time-dilated
	if cfg.reserve == 0 {
		c.ReserveRankGroups = g.RanksPerChannel + 1 // power-down disabled
	} else {
		c.ReserveRankGroups = cfg.reserve
	}
	// Hotness-policy overrides only: the reserve above IS this experiment's
	// independent variable and must not be clobbered by an A/B knob.
	o.Policy.applyHotness(&c)
	d, err := core.New(c)
	if err != nil {
		panic(err)
	}
	// Replay horizon, declared up front so telemetry can publish an ETA;
	// the bandwidth reasoning lives at the replay loop below.
	horizon := sim.Time(o.scaled(24_000_000, 8_000_000)) // 24ms / 8ms
	rt := o.telemetryFor(d, sim.Millisecond, horizon)

	// Six-workload mix (as in the paper's trace mixing), footprints
	// rounded to the 2 GiB AU and summing to the allocation target.
	apps := []string{"data-analytics", "data-caching", "data-serving",
		"graph-analytics", "in-memory-analytics", "media-streaming"}
	per := cfg.allocGiB / int64(len(apps))
	if per < 2 {
		per = 2
	}
	var profiles []trace.Profile
	var total int64
	for i, app := range apps {
		p, err := trace.ProfileByName(app)
		if err != nil {
			panic(err)
		}
		size := per
		if i == len(apps)-1 {
			size = cfg.allocGiB - total
		}
		p.FootprintBytes = size << 30
		// Intense hot reuse with a modest truly-quiet tier: the victim
		// rank fills mostly from unallocated capacity, so self-refresh
		// viability tracks the free-space arithmetic of the paper.
		p.HotBias = 0.99
		p.UntouchedFraction = cfg.untouched
		profiles = append(profiles, p)
		total += size
	}
	mix := trace.MustMixed(profiles, o.Seed)

	// One VM owns the whole mix; its AU space is contiguous.
	alloc, err := d.AllocateVM(1, 0, cfg.allocGiB<<30, 0)
	if err != nil {
		panic(err)
	}
	base := alloc.AUBases[0]
	for i := 1; i < len(alloc.AUBases); i++ {
		if alloc.AUBases[i] != alloc.AUBases[i-1]+dram.HPA(c.AUBytes) {
			panic("experiments: AU space not contiguous")
		}
	}

	activeRanks := d.ActiveRanksPerChannel() * g.Channels
	d.Hotness().Enable(0)

	// Replay at >30 GB/s device bandwidth: one 64 B access every ~2 ns.
	// The warm-up half of the horizon covers the iterative cold-set
	// enrichment the paper reports as its 10-60 s warm-up.
	const gapNs = 2
	warmup := horizon / 2
	n := int(horizon / gapNs)

	dev := d.Device()
	var wStandby, wSR, wMPSM float64
	var warmupEnters int64
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		if i&0xffff == 0 {
			o.checkCanceled()
		}
		a := mix.Next()
		if _, err := d.Access(base+dram.HPA(a.Addr), a.Write, now); err != nil {
			panic(err)
		}
		now += gapNs
		rt.tick(now)
		if now == warmup {
			dev.AccountUpTo(now)
			wStandby, wSR, wMPSM = dev.BackgroundEnergy()
			warmupEnters = d.Stats().SelfRefreshEnters
		}
	}
	d.Tick(now)
	if err := rt.finish(horizon); err != nil {
		panic(err)
	}
	dev.AccountUpTo(horizon)
	st, sr, mp := dev.BackgroundEnergy()

	return srRunResult{
		cfg:             cfg,
		activeRanks:     activeRanks,
		totalRanks:      g.TotalRanks(),
		standbyEnergy:   st - wStandby,
		selfRefEnergy:   sr - wSR,
		mpsmEnergy:      mp - wMPSM,
		span:            horizon - warmup,
		srEnters:        d.Stats().SelfRefreshEnters,
		srExits:         d.Stats().SelfRefreshExits,
		warmupSREntries: warmupEnters,
	}
}

// srMemo holds the self-refresh replays of one RunAll call. Fig14 and Fig15
// replay the same four configurations; with the memo each replays once,
// whichever runner reaches it first, even when the two run concurrently.
type srMemo struct {
	mu   sync.Mutex
	runs map[srKey]*srRun
}

// srKey names a replay: every Options field that could change a result
// (the telemetry sinks, report writer, context and memo cleared), plus the
// configuration.
type srKey struct {
	opts Options
	cfg  srConfig
}

type srRun struct {
	mu  sync.Mutex // held while the replay runs, so a second caller waits
	ok  bool
	res srRunResult
}

// selfRefresh returns runSelfRefresh(o, cfg), from o's memo when the same
// replay already finished. A replay with telemetry sinks always runs, since
// the files it writes are part of its output; its result is then shared. A
// replay abandoned by a panic (cancellation) leaves nothing behind.
func (o Options) selfRefresh(cfg srConfig) srRunResult {
	m := o.srRuns
	if m == nil {
		return runSelfRefresh(o, cfg)
	}
	fp := o.withoutTelemetry()
	fp.Out, fp.Ctx, fp.watchExperiment, fp.srRuns = nil, nil, "", nil
	key := srKey{fp, cfg}
	m.mu.Lock()
	r := m.runs[key]
	if r == nil {
		r = &srRun{}
		m.runs[key] = r
	}
	m.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ok || o.observed() {
		r.res = runSelfRefresh(o, cfg)
		r.ok = true
	}
	return r.res
}

// Fig14 reproduces the hotness-aware self-refresh study: extra savings over
// rank-level power-down at four allocation levels, with savings collapsing
// when the active ranks' cold+free capacity per channel falls below a rank.
func Fig14(o Options) Result {
	res := newResult("Fig14", "Additional savings from hotness-aware self-refresh",
		"~20.3% extra at 208GB; degrades with allocation; 14.9% at 304GB/8-rank")
	w := o.out()
	res.header(w)

	csv := o.csvFile("fig14_savings")
	if csv != nil {
		fmt.Fprintln(csv, "config,alloc_gib,active_ranks,sr_enters,sr_exits,extra_saving")
		defer csv.Close()
	}
	tab := metrics.NewTable("config", "active ranks", "SR enters/exits", "extra saving", "paper")
	for i, cfg := range srConfigs() {
		ro := o
		if i > 0 {
			ro = o.withoutTelemetry() // only the headline config writes files
		}
		r := ro.selfRefresh(cfg)
		saving := r.additionalSaving()
		if csv != nil {
			fmt.Fprintf(csv, "%s,%d,%d,%d,%d,%.4f\n",
				cfg.label, cfg.allocGiB, r.activeRanks, r.srEnters, r.srExits, saving)
		}
		tab.AddRowf("%s\t%d/%d\t%d/%d\t%s\t%s",
			cfg.label, r.activeRanks, r.totalRanks, r.srEnters, r.srExits,
			pct(saving), cfg.paperNote)
		res.Metrics["saving_"+cfg.label] = saving
	}
	tab.Render(w)
	fmt.Fprintln(w, "\nmissing/low bars at high allocation mirror the paper's 240GB cases")
	res.footer(w)
	return res
}

// Fig15 reproduces the combined result: total background-energy savings
// from power-down plus self-refresh, against the all-ranks-standby
// baseline; the 8-rank case gets self-refresh savings only.
func Fig15(o Options) Result {
	res := newResult("Fig15", "Total energy savings, both techniques",
		"20.2% from power-down alone; 25.6-32.3% combined; 14.9% at 8-rank")
	w := o.out()
	res.header(w)

	tab := metrics.NewTable("config", "power-down only", "with self-refresh", "paper")
	for _, cfg := range srConfigs() {
		r := o.withoutTelemetry().selfRefresh(cfg)
		// Power-down-only saving for the same configuration: idle groups
		// in MPSM, active groups fully standby.
		idle := float64(r.totalRanks - r.activeRanks)
		pdOnly := 1 - (float64(r.activeRanks)+idle*0.068)/float64(r.totalRanks)
		tab.AddRowf("%s\t%s\t%s\t%s", cfg.label, pct(pdOnly), pct(r.totalSaving()), cfg.paperNote)
		res.Metrics["total_"+cfg.label] = r.totalSaving()
		res.Metrics["pdonly_"+cfg.label] = pdOnly
	}
	tab.Render(w)
	res.footer(w)
	return res
}
