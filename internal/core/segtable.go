package core

import (
	"dtl/internal/dram"
)

// segUnmapped marks an HSN with no DSN mapping in the dense segment table.
const segUnmapped dram.DSN = -1

// segTablePageBits sizes the dense table's pages: 2^12 = 4096 entries
// (32 KiB of DSNs) per page.
const segTablePageBits = 12

// segTable is the DRAM-resident segment mapping table (HSN → DSN, Fig. 4)
// as a dense paged array rather than a Go map: the access path replaces a
// hash+bucket probe with two indexed loads, and allocation/deallocation
// replace map inserts and deletes with plain stores.
//
// The HSN space is MaxHosts × TotalAUs × SegmentsPerAU entries, far more
// than the device can back at once, and each host's free-AU queue hands
// out every AU id in turn. Memory is therefore bounded by live state, not
// address space: each page counts its mapped entries, a page whose count
// drops to zero is unlinked onto a spare stack (every entry already
// segUnmapped), and the next page to materialize pops a spare before
// allocating. Pages held at once (live plus spare) never exceed the peak
// number of simultaneously live pages, so the table stays at what the
// peak live AUs need — the scale of the paper's Table 5, which sizes the
// table for device capacity. A page is 4096 entries, mirroring revMap's
// per-segment density.
type segTable struct {
	pages []*segPage
	used  []int32    // mapped entries per page, parallel to pages
	spare []*segPage // released pages, every entry segUnmapped
	live  int        // mapped entries, kept so len() stays O(1)
}

// segPage is one page of the table. A fixed-size array lets the masked
// in-page index skip its bounds check, and at exactly 32 KiB it fills its
// allocation size class.
type segPage [1 << segTablePageBits]dram.DSN

// newSegTable builds a table covering HSNs in [0, maxHSN).
func newSegTable(maxHSN int64) *segTable {
	nPages := (maxHSN + (1 << segTablePageBits) - 1) >> segTablePageBits
	return &segTable{pages: make([]*segPage, nPages), used: make([]int32, nPages)}
}

// get returns the mapping for hsn, with ok=false when unmapped.
func (t *segTable) get(hsn dram.HSN) (dram.DSN, bool) {
	pi := uint64(hsn) >> segTablePageBits
	if pi >= uint64(len(t.pages)) {
		return 0, false
	}
	p := t.pages[pi]
	if p == nil {
		return 0, false
	}
	v := p[uint64(hsn)&(1<<segTablePageBits-1)]
	if v == segUnmapped {
		return 0, false
	}
	return v, true
}

// set stores hsn → dsn, materializing the page on first touch from the
// spare stack when it holds one.
func (t *segTable) set(hsn dram.HSN, dsn dram.DSN) {
	pi := uint64(hsn) >> segTablePageBits
	p := t.pages[pi]
	if p == nil {
		if n := len(t.spare); n > 0 {
			p, t.spare = t.spare[n-1], t.spare[:n-1]
		} else {
			p = new(segPage)
			for i := range p {
				p[i] = segUnmapped
			}
		}
		t.pages[pi] = p
	}
	slot := &p[uint64(hsn)&(1<<segTablePageBits-1)]
	if *slot == segUnmapped {
		t.live++
		t.used[pi]++
	}
	*slot = dsn
}

// del removes the mapping for hsn; missing entries are a no-op. Unmapping
// a page's last entry releases the page to the spare stack.
func (t *segTable) del(hsn dram.HSN) {
	pi := uint64(hsn) >> segTablePageBits
	if pi >= uint64(len(t.pages)) || t.pages[pi] == nil {
		return
	}
	p := t.pages[pi]
	slot := &p[uint64(hsn)&(1<<segTablePageBits-1)]
	if *slot == segUnmapped {
		return
	}
	t.live--
	*slot = segUnmapped
	if t.used[pi]--; t.used[pi] == 0 {
		t.pages[pi] = nil
		t.spare = append(t.spare, p)
	}
}

// len reports the number of live mappings.
func (t *segTable) len() int { return t.live }

// forEach visits every live mapping in ascending HSN order (the table is
// dense, so iteration order is deterministic for free — snapshots need no
// sort pass).
func (t *segTable) forEach(fn func(hsn dram.HSN, dsn dram.DSN)) {
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		base := dram.HSN(pi << segTablePageBits)
		for i, v := range p {
			if v != segUnmapped {
				fn(base+dram.HSN(i), v)
			}
		}
	}
}

// fifo is a first-in-first-out queue with an explicit head index: popping
// advances head (O(1), no reslicing away capacity) and pushing appends,
// compacting the dead prefix only when the backing array is full. The
// allocate/deallocate cycle therefore reuses one backing array at steady
// state instead of re-growing a front-sliced slice on every free. It backs
// the per-rank free segment queues and the per-host free AU queues of §4.2.
//
// Order is observable — the allocator hands out entries front-first and
// returns them at the back — so every operation preserves exactly the
// ordering the previous plain-slice implementation had.
type fifo[T comparable] struct {
	buf  []T
	head int
}

// newFIFO pre-sizes a queue for capacity entries.
func newFIFO[T comparable](capacity int64) fifo[T] {
	return fifo[T]{buf: make([]T, 0, capacity)}
}

// len reports queued entries.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// items returns the live window (front to back). Callers must not retain it
// across queue mutations.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

// push appends v at the back, reclaiming the dead prefix if the backing
// array is out of room.
func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// pushAll appends vs in order.
func (q *fifo[T]) pushAll(vs []T) {
	for _, v := range vs {
		q.push(v)
	}
}

// popFront removes and returns the front entry.
func (q *fifo[T]) popFront() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// popFrontN appends the first n entries to dst and removes them.
func (q *fifo[T]) popFrontN(dst []T, n int) []T {
	dst = append(dst, q.buf[q.head:q.head+n]...)
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return dst
}

// remove deletes the first occurrence of v, preserving order, and reports
// whether it was present.
func (q *fifo[T]) remove(v T) bool {
	for i := q.head; i < len(q.buf); i++ {
		if q.buf[i] == v {
			copy(q.buf[i:], q.buf[i+1:])
			q.buf = q.buf[:len(q.buf)-1]
			return true
		}
	}
	return false
}

// reset empties the queue, keeping the backing array.
func (q *fifo[T]) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}
