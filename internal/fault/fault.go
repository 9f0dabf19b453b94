// Package fault is the deterministic fault-injection subsystem: a seeded,
// virtual-time-driven fault process attached to a dram.Device. Clauses of a
// textual spec compile into Poisson/burst correctable-error processes,
// one-shot uncorrectable errors, transition faults (a rank that takes an
// abnormal latency spike leaving self-refresh, or is effectively stuck
// there), and whole-rank failures — all scheduled on the internal/sim event
// heap so a run is exactly reproducible from its seed.
//
// Spec grammar (semicolon-separated clauses):
//
//	spec    := clause (";" clause)*
//	clause  := "seed=" int
//	         | kind ":" target [":" params]
//	kind    := "ce" | "storm" | "ue" | "wake" | "stuck" | "kill" | "psu"
//	target  := ["x" int "/"] rank              // optional expander scope
//	rank    := "ch" int "/rk" int
//	         | "ch" ["="] int ["@" duration]   // psu only: a whole channel
//	params  := param ("," param)*
//	param   := "rate=" float          // events per second (ce, storm)
//	         | "at=" duration         // activation time (default 0)
//	         | "dur=" duration        // active window (default: rest of run)
//	         | "n=" int               // errors per event (default 1)
//	         | "extra=" duration      // wake-fault latency (wake; default 50us)
//
// Durations use Go syntax ("90m", "1.5s", "400us"). "ce" is a background
// correctable-error process; "storm" is the same process with a default
// rate high enough to trip the health monitor's leaky bucket. "stuck" is
// "wake" with a very large default extra (the rank barely leaves
// self-refresh). Example:
//
//	seed=7;storm:ch1/rk2:at=90m,rate=2000,dur=60s;kill:ch3/rk5:at=3h
//
// "psu" is the correlated failure: one power-delivery fault takes out every
// rank on a channel at once, the scenario that stresses the health monitor's
// retirement capacity instead of one rank at a time. It targets a channel,
// not a rank — "psu:ch1:at=90m", or the shorthand "psu:ch=1@90m".
//
// The optional "xN/" prefix scopes a clause to expander N of a rack-scale
// run ("kill:x2/ch0/rk0", "psu:x1/ch3"). A single-device Injector rejects
// expander-scoped clauses loudly — only the rack front end (internal/rack)
// may consume them, by splitting the spec with Spec.ForExpander before
// building one Injector per expander. Unscoped clauses in a rack run apply
// to expander 0, so single-expander specs mean the same thing at rack scale.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// Kind is the clause type.
type Kind int

// Clause kinds.
const (
	// CE is a Poisson process of correctable errors on random segments of
	// the rank.
	CE Kind = iota
	// Storm is CE with a default rate chosen to trip the storm detector.
	Storm
	// UE is a one-shot uncorrectable error on a random segment of the rank.
	UE
	// Wake charges an abnormal extra latency on every self-refresh exit of
	// the rank for the clause window.
	Wake
	// Kill is a one-shot whole-rank failure.
	Kill
	// PSU is a one-shot correlated failure of every rank on a channel, as if
	// the channel's power supply died.
	PSU
)

// WholeChannel is the Clause.Rank.Rank sentinel for channel-scoped clauses
// (PSU): the clause targets every rank of Rank.Channel.
const WholeChannel = -1

// AnyExpander is the Clause.Expander sentinel for clauses without an "xN/"
// scope: the clause targets the (single) device the injector is bound to, or
// expander 0 of a rack.
const AnyExpander = -1

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CE:
		return "ce"
	case Storm:
		return "storm"
	case UE:
		return "ue"
	case Wake:
		return "wake"
	case Kill:
		return "kill"
	case PSU:
		return "psu"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Default clause parameters.
const (
	// DefaultCERate is the background correctable-error rate (events/s).
	DefaultCERate = 2.0
	// DefaultStormRate trips the core health monitor's leaky bucket within
	// a fraction of a second.
	DefaultStormRate = 2000.0
	// DefaultWakeExtra is the abnormal self-refresh-exit latency.
	DefaultWakeExtra = 50 * sim.Microsecond
	// StuckWakeExtra models a rank that barely leaves self-refresh.
	StuckWakeExtra = 400 * sim.Microsecond
)

// Clause is one compiled fault process.
type Clause struct {
	Kind     Kind
	Expander int // target expander ("xN/" prefix), or AnyExpander
	Rank     dram.RankID
	Rate     float64  // events per second (CE/Storm)
	At       sim.Time // activation time
	Dur      sim.Time // active window; 0 = until the horizon
	Count    int      // errors per event (CE/Storm/UE)
	Extra    sim.Time // wake-fault latency (Wake)
}

// Spec is a parsed fault specification.
type Spec struct {
	Seed    int64
	Clauses []Clause
}

// Parse compiles a textual fault spec. An empty string yields an empty spec.
func Parse(s string) (Spec, error) {
	spec := Spec{Seed: 1}
	for _, raw := range strings.Split(s, ";") {
		part := strings.TrimSpace(raw)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			seed, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			spec.Seed = seed
			continue
		}
		c, err := parseClause(part)
		if err != nil {
			return Spec{}, err
		}
		spec.Clauses = append(spec.Clauses, c)
	}
	return spec, nil
}

// MustParse is Parse that panics on error, for tests and fixed experiment
// specs.
func MustParse(s string) Spec {
	spec, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// MaxExpander reports the highest expander index any clause targets, or
// AnyExpander if the spec is entirely unscoped. Rack front ends use it to
// reject specs that address expanders outside the rack.
func (s Spec) MaxExpander() int {
	max := AnyExpander
	for _, c := range s.Clauses {
		if c.Expander > max {
			max = c.Expander
		}
	}
	return max
}

// ForExpander projects the spec onto expander x: clauses scoped to x — plus,
// on expander 0, the unscoped clauses — survive with their Expander field
// cleared, so the result is a plain single-device spec NewInjector accepts.
// Each expander's sub-spec derives its own seed from the parent seed and the
// expander index, so per-clause arrival streams on different expanders are
// decorrelated but exactly reproducible.
func (s Spec) ForExpander(x int) Spec {
	out := Spec{Seed: s.Seed + int64(x)*0x9e3779b9}
	for _, c := range s.Clauses {
		if c.Expander == x || (c.Expander == AnyExpander && x == 0) {
			c.Expander = AnyExpander
			out.Clauses = append(out.Clauses, c)
		}
	}
	return out
}

func parseClause(s string) (Clause, error) {
	fields := strings.SplitN(s, ":", 3)
	if len(fields) < 2 {
		return Clause{}, fmt.Errorf("fault: clause %q needs kind:chN/rkM", s)
	}
	c := Clause{Count: 1, Expander: AnyExpander}
	switch strings.TrimSpace(fields[0]) {
	case "ce":
		c.Kind, c.Rate = CE, DefaultCERate
	case "storm":
		c.Kind, c.Rate = Storm, DefaultStormRate
	case "ue":
		c.Kind = UE
	case "wake":
		c.Kind, c.Extra = Wake, DefaultWakeExtra
	case "stuck":
		c.Kind, c.Extra = Wake, StuckWakeExtra
	case "kill":
		c.Kind = Kill
	case "psu":
		c.Kind = PSU
	default:
		return Clause{}, fmt.Errorf("fault: unknown kind %q in clause %q", fields[0], s)
	}

	rank := strings.TrimSpace(fields[1])
	// Optional expander scope: "xN/" ahead of the rank or channel target.
	if rest, ok := strings.CutPrefix(rank, "x"); ok {
		xs, tail, found := strings.Cut(rest, "/")
		if !found {
			return Clause{}, fmt.Errorf("fault: bad target %q in clause %q (want xN/chM...)", rank, s)
		}
		n, err := strconv.Atoi(strings.TrimSpace(xs))
		if err != nil || n < 0 {
			return Clause{}, fmt.Errorf("fault: bad expander %q in clause %q (want xN/ with N >= 0)", xs, s)
		}
		c.Expander, rank = n, strings.TrimSpace(tail)
	}
	if c.Kind == PSU {
		// Channel-scoped target: "chN" or "ch=N", with an optional "@t"
		// activation shorthand ("psu:ch=1@90m" == "psu:ch1:at=90m").
		if ch, at, ok := strings.Cut(rank, "@"); ok {
			t, err := parseDuration(strings.TrimSpace(at))
			if err != nil {
				return Clause{}, fmt.Errorf("fault: bad activation %q in clause %q: %v", at, s, err)
			}
			rank, c.At = strings.TrimSpace(ch), t
		}
		chs, ok := strings.CutPrefix(rank, "ch")
		if !ok {
			return Clause{}, fmt.Errorf("fault: bad channel %q in clause %q (want chN)", rank, s)
		}
		chs = strings.TrimPrefix(chs, "=")
		n, err := strconv.Atoi(strings.TrimSpace(chs))
		if err != nil {
			return Clause{}, fmt.Errorf("fault: bad channel %q in clause %q (want chN)", rank, s)
		}
		c.Rank = dram.RankID{Channel: n, Rank: WholeChannel}
	} else {
		// Each number must run to the end of its field: "ch0/rk0zz" is a
		// typo, not rank 0.
		chs, rks, ok := strings.Cut(rank, "/")
		chs, okCh := strings.CutPrefix(strings.TrimSpace(chs), "ch")
		rks, okRk := strings.CutPrefix(strings.TrimSpace(rks), "rk")
		ch, errCh := strconv.Atoi(strings.TrimSpace(chs))
		rk, errRk := strconv.Atoi(strings.TrimSpace(rks))
		if !ok || !okCh || !okRk || errCh != nil || errRk != nil {
			return Clause{}, fmt.Errorf("fault: bad rank %q in clause %q (want chN/rkM)", rank, s)
		}
		c.Rank = dram.RankID{Channel: ch, Rank: rk}
	}

	if len(fields) == 3 {
		for _, kv := range strings.Split(fields[2], ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Clause{}, fmt.Errorf("fault: bad param %q in clause %q", kv, s)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "rate":
				c.Rate, err = strconv.ParseFloat(val, 64)
				if err == nil && c.Rate <= 0 {
					err = fmt.Errorf("rate must be positive")
				}
			case "at":
				c.At, err = parseDuration(val)
			case "dur":
				c.Dur, err = parseDuration(val)
			case "n":
				c.Count, err = strconv.Atoi(val)
				if err == nil && c.Count <= 0 {
					err = fmt.Errorf("count must be positive")
				}
			case "extra":
				c.Extra, err = parseDuration(val)
			default:
				err = fmt.Errorf("unknown param")
			}
			if err != nil {
				return Clause{}, fmt.Errorf("fault: param %q in clause %q: %v", kv, s, err)
			}
		}
	}
	return c, nil
}

func parseDuration(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("duration must be non-negative")
	}
	return sim.Time(d.Nanoseconds()), nil
}

// Stats counts what the injector actually delivered.
type Stats struct {
	CorrectableEvents   int64
	CorrectableErrors   int64 // sum of per-event counts
	UncorrectableEvents int64
	WakeFaultsArmed     int64
	RankKills           int64 // individual rank failures (kill and psu alike)
	PSUEvents           int64 // correlated whole-channel failures delivered
}

// Injector drives a Spec against a device on a sim engine.
type Injector struct {
	spec  Spec
	dev   *dram.Device
	eng   *sim.Engine
	codec *dram.AddressCodec
	stats Stats
}

// NewInjector validates the spec against the device geometry and binds it to
// the engine. Start must be called to arm the clauses.
func NewInjector(spec Spec, dev *dram.Device, eng *sim.Engine) (*Injector, error) {
	g := dev.Geometry()
	for _, c := range spec.Clauses {
		if c.Expander != AnyExpander {
			return nil, fmt.Errorf("fault: clause %s targets expander x%d but the injector is bound to a single device; "+
				"expander-scoped clauses are only valid in rack runs (split the spec with Spec.ForExpander)",
				c.Kind, c.Expander)
		}
		if c.Kind == PSU {
			if c.Rank.Channel < 0 || c.Rank.Channel >= g.Channels || c.Rank.Rank != WholeChannel {
				return nil, fmt.Errorf("fault: clause %s targets channel %d outside %v", c.Kind, c.Rank.Channel, g)
			}
			continue
		}
		if c.Rank.Channel < 0 || c.Rank.Channel >= g.Channels ||
			c.Rank.Rank < 0 || c.Rank.Rank >= g.RanksPerChannel {
			return nil, fmt.Errorf("fault: clause %s targets rank %v outside %v", c.Kind, c.Rank, g)
		}
	}
	return &Injector{spec: spec, dev: dev, eng: eng, codec: dev.Codec()}, nil
}

// Start schedules every clause on the engine; processes stop at horizon.
// Each clause draws from its own seeded stream, so adding or reordering
// clauses does not perturb the arrival times of the others.
func (in *Injector) Start(horizon sim.Time) {
	for i, c := range in.spec.Clauses {
		rng := rand.New(rand.NewSource(in.spec.Seed*1_000_003 + int64(i)))
		end := horizon
		if c.Dur > 0 && c.At+c.Dur < end {
			end = c.At + c.Dur
		}
		switch c.Kind {
		case CE, Storm:
			in.schedulePoisson(c, rng, end)
		case UE:
			c := c
			in.eng.At(c.At, func(now sim.Time) {
				dsn := in.randSegment(c.Rank, rng)
				if err := in.dev.RaiseUncorrectable(dsn, now); err != nil {
					panic(err) // validated geometry: unreachable
				}
				in.stats.UncorrectableEvents++
			})
		case Wake:
			c := c
			in.eng.At(c.At, func(sim.Time) {
				in.dev.SetWakeFault(c.Rank, c.Extra)
				in.stats.WakeFaultsArmed++
			})
			if end < horizon {
				in.eng.At(end, func(sim.Time) {
					in.dev.SetWakeFault(c.Rank, 0)
				})
			}
		case Kill:
			c := c
			in.eng.At(c.At, func(now sim.Time) {
				in.dev.FailRank(c.Rank, now)
				in.stats.RankKills++
			})
		case PSU:
			c := c
			in.eng.At(c.At, func(now sim.Time) {
				// One instant, every rank of the channel: the failures land
				// in ascending rank order so downstream event handling stays
				// deterministic.
				for r := 0; r < in.dev.Geometry().RanksPerChannel; r++ {
					in.dev.FailRank(dram.RankID{Channel: c.Rank.Channel, Rank: r}, now)
					in.stats.RankKills++
				}
				in.stats.PSUEvents++
			})
		}
	}
}

// schedulePoisson arms a correctable-error arrival process over [c.At, end):
// exponential interarrivals at c.Rate events/s, each event raising c.Count
// errors on a uniformly random segment of the rank. The fire closure is
// built once and rescheduled as the same value, as Engine.Every does, so an
// arrival allocates nothing.
func (in *Injector) schedulePoisson(c Clause, rng *rand.Rand, end sim.Time) {
	var fire sim.Event
	arm := func(at sim.Time) {
		next := at + sim.Time(rng.ExpFloat64()/c.Rate*float64(sim.Second))
		if next < end {
			in.eng.At(next, fire)
		}
	}
	fire = func(now sim.Time) {
		dsn := in.randSegment(c.Rank, rng)
		if err := in.dev.RaiseCorrectable(dsn, c.Count, now); err != nil {
			panic(err) // validated geometry: unreachable
		}
		in.stats.CorrectableEvents++
		in.stats.CorrectableErrors += int64(c.Count)
		arm(now)
	}
	arm(c.At)
}

// randSegment picks a uniformly random segment slot on the rank.
func (in *Injector) randSegment(id dram.RankID, rng *rand.Rand) dram.DSN {
	idx := rng.Int63n(in.dev.Geometry().SegmentsPerRank())
	return in.codec.EncodeDSN(dram.Loc{Rank: id.Rank, Channel: id.Channel, Index: idx})
}

// Stats reports delivered fault counts.
func (in *Injector) Stats() Stats { return in.stats }

// Spec returns the parsed spec the injector runs.
func (in *Injector) Spec() Spec { return in.spec }
