package core

import (
	"errors"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// HealthMonitor closes the reliability loop the paper's conclusion sketches:
// it consumes the device's ECC/fault telemetry (dram.FaultHook), applies a
// per-rank leaky-bucket storm detector, and automatically drives RetireRank
// when a rank degrades — with retry/backoff when the surviving capacity
// cannot absorb the drain yet, so ErrRetireCapacity becomes a deferred
// retirement instead of a dead end.
//
// Fault hooks fire synchronously from the device (possibly mid-access), so
// the hook path only classifies the event and enqueues work; the actual
// retirement runs from process(), called on DTL.Tick and after deallocation
// (when freed capacity may unblock a deferred retirement).
type HealthMonitor struct {
	d *DTL

	// bucket is the leaky-bucket fill level per global rank; lastLeak is the
	// last time the bucket was drained (lazy leak, applied on arrival).
	bucket   []float64
	lastLeak []sim.Time
	// wakeFaults counts abnormal self-refresh exits per global rank.
	wakeFaults []int64

	queue  []retireRequest
	queued map[int]bool // global ranks with a pending retirement

	storms      *telemetry.Counter
	autoRetires *telemetry.Counter
	deferred    *telemetry.Counter
	retries     *telemetry.Counter
	abandoned   *telemetry.Counter
	faultEvents *telemetry.Counter
}

// retireRequest is one pending automatic retirement.
type retireRequest struct {
	gr       int
	cause    string
	attempts int
	backoff  sim.Time
	nextTry  sim.Time
}

// Storm detector and retirement retry policy: a rank must burst well past
// the background DDR4 correctable-error rate to storm, and deferred
// retirements retry from 10 ms up to 5 s.
const (
	// stormThreshold is the leaky-bucket level (correctable errors) at which
	// a rank is declared storming and queued for retirement.
	stormThreshold float64 = 64
	// leakPerSecond is the bucket drain rate: sustained error rates below it
	// never trip the detector.
	leakPerSecond float64 = 16
	// wakeFaultThreshold is how many abnormal self-refresh exits a rank may
	// take before being queued for retirement.
	wakeFaultThreshold int64 = 4
	// retryBackoff is the initial delay before re-attempting a retirement
	// that failed for lack of capacity; it doubles per attempt up to
	// retryBackoffMax.
	retryBackoff    = 10 * sim.Millisecond
	retryBackoffMax = 5 * sim.Second
)

// newHealthMonitor wires the monitor into the device's fault hook.
func newHealthMonitor(d *DTL) *HealthMonitor {
	n := d.cfg.Geometry.TotalRanks()
	h := &HealthMonitor{
		d:           d,
		bucket:      make([]float64, n),
		lastLeak:    make([]sim.Time, n),
		wakeFaults:  make([]int64, n),
		queued:      make(map[int]bool),
		storms:      d.reg.Counter("core.health.storms"),
		autoRetires: d.reg.Counter("core.health.auto_retires"),
		deferred:    d.reg.Counter("core.health.retires_deferred"),
		retries:     d.reg.Counter("core.health.retire_retries"),
		abandoned:   d.reg.Counter("core.health.retires_abandoned"),
		faultEvents: d.reg.Counter("core.health.fault_events"),
	}
	d.dev.OnFault(h.onFault)
	d.reg.GaugeFunc("core.health.pending_retires", func() float64 {
		return float64(len(h.queue))
	})
	return h
}

// Health returns the DTL's health monitor.
func (d *DTL) Health() *HealthMonitor { return d.health }

// BucketLevel reports the storm detector's current fill for a rank, after
// applying the leak up to now.
func (h *HealthMonitor) BucketLevel(id dram.RankID, now sim.Time) float64 {
	gr := h.d.codec.GlobalRank(id.Channel, id.Rank)
	h.leak(gr, now)
	return h.bucket[gr]
}

// PendingRetires reports the queued-but-not-yet-applied retirements.
func (h *HealthMonitor) PendingRetires() int { return len(h.queue) }

// leak drains the rank's bucket for the time elapsed since the last update.
func (h *HealthMonitor) leak(gr int, now sim.Time) {
	if now <= h.lastLeak[gr] {
		return
	}
	drain := leakPerSecond * float64(now-h.lastLeak[gr]) / float64(sim.Second)
	h.bucket[gr] -= drain
	if h.bucket[gr] < 0 {
		h.bucket[gr] = 0
	}
	h.lastLeak[gr] = now
}

// onFault is the device fault hook. It must not mutate mapping state: the
// device may raise faults synchronously from the middle of an access or a
// power transition, so all it does is classify, count and enqueue.
func (h *HealthMonitor) onFault(ev dram.FaultEvent) {
	gr := h.d.codec.GlobalRank(ev.Rank.Channel, ev.Rank.Rank)
	h.faultEvents.Inc()
	h.d.tracer.Fault(gr, ev.Kind.String(), int64(ev.Count), ev.At)

	if h.d.retired[gr] || h.queued[gr] {
		return
	}
	switch ev.Kind {
	case dram.FaultCorrectable:
		h.leak(gr, ev.At)
		h.bucket[gr] += float64(ev.Count)
		if h.bucket[gr] >= stormThreshold {
			h.storms.Inc()
			h.d.tracer.Storm(gr, int64(h.bucket[gr]), ev.At)
			h.enqueue(gr, "ecc-storm", ev.At)
		}
	case dram.FaultUncorrectable:
		h.enqueue(gr, "uncorrectable", ev.At)
	case dram.FaultWake:
		h.wakeFaults[gr]++
		if h.wakeFaults[gr] >= wakeFaultThreshold {
			h.enqueue(gr, "wake-fault", ev.At)
		}
	case dram.FaultRankFailure:
		h.enqueue(gr, "rank-failure", ev.At)
	}
}

func (h *HealthMonitor) enqueue(gr int, cause string, now sim.Time) {
	h.queued[gr] = true
	h.queue = append(h.queue, retireRequest{
		gr: gr, cause: cause, backoff: retryBackoff, nextTry: now,
	})
}

// process drains the retirement queue: every due request attempts the drain
// and retire; a capacity shortfall re-queues it with doubled backoff. It is
// called from DTL.Tick and after DeallocateVM (freed capacity may unblock a
// deferred retirement immediately).
func (h *HealthMonitor) process(now sim.Time) {
	if len(h.queue) == 0 {
		return
	}
	// Retirement itself can raise faults (a wake-faulted rank exiting
	// self-refresh for its drain), which append to h.queue from the hook;
	// swap the queue out so this pass iterates a stable snapshot.
	pending := h.queue
	h.queue = nil
	for _, req := range pending {
		if req.nextTry > now {
			h.queue = append(h.queue, req)
			continue
		}
		if h.d.retired[req.gr] {
			delete(h.queued, req.gr)
			continue
		}
		ch, rk := h.d.codec.SplitGlobalRank(req.gr)
		id := dram.RankID{Channel: ch, Rank: rk}
		if req.attempts > 0 {
			h.retries.Inc()
		}
		err := h.d.retireRank(id, now, req.cause)
		switch {
		case err == nil:
			h.autoRetires.Inc()
			delete(h.queued, req.gr)
		case errors.Is(err, ErrRetireCapacity):
			req.attempts++
			h.deferred.Inc()
			h.d.tracer.RetireDeferred(req.gr, req.cause, req.backoff, now)
			// The backoff is time the degraded rank keeps serving because
			// retirement could not proceed — charged to the fault path.
			h.d.chargeSpan(telemetry.SystemVM, req.gr, telemetry.CauseFaultRetry,
				now, now+req.backoff, 0)
			req.nextTry = now + req.backoff
			if req.backoff < retryBackoffMax {
				req.backoff *= 2
				if req.backoff > retryBackoffMax {
					req.backoff = retryBackoffMax
				}
			}
			h.queue = append(h.queue, req)
		case errors.Is(err, ErrLastRank):
			// The channel has nowhere to put the data; the rank must keep
			// serving (degraded). Drop the request — re-raised faults will
			// not re-queue it once abandoned either, because the bucket
			// stays saturated only while errors keep arriving.
			h.abandoned.Inc()
			delete(h.queued, req.gr)
		default:
			// Structural errors (out-of-range, already retired) are bugs in
			// the enqueue path; surface them loudly.
			panic("core: health retirement failed: " + err.Error())
		}
	}
}
