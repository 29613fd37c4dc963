package sim

import "math/bits"

// The calendar queue covers a sliding window of calendarWindow consecutive
// cycles with one bucket per cycle. 256 cycles comfortably spans the common
// completion delays (vault array + controller + serialization is a few tens
// of cycles; main-memory round trips land near a hundred), so in steady
// state nearly every event takes the O(1) bucket path and only rare
// far-future events (refresh-scale timers, idle-period wakeups) touch the
// overflow heap.
const (
	calendarWindow = 256
	calendarMask   = calendarWindow - 1
	calendarWords  = calendarWindow / 64
)

// calendarQueue is a time-wheel scheduler: events within the window
// [cur, cur+calendarWindow) live in per-cycle buckets addressed by
// when&calendarMask; later events wait in an overflow min-heap and migrate
// into buckets as the window advances.
//
// Ordering invariants, on which the engine's determinism contract rests:
//
//   - Every queued event has when >= cur, and every overflow event has
//     when >= cur+calendarWindow. cur only advances, and only up to the
//     cycle of the earliest pending event (never past a popLE limit), so a
//     later push — which the engine guarantees is not in the past — can
//     never land on a cycle the window has already passed.
//   - A bucket holds events of exactly one cycle: the window spans
//     calendarWindow consecutive cycles, so each residue class mod
//     calendarWindow occurs once within it.
//   - Bucket order is push order, which equals seq order: direct pushes
//     carry monotonically increasing seq, and migration drains the overflow
//     heap in (when, seq) order before any later direct push (with a
//     necessarily larger seq) can target the same bucket. Popping from the
//     bucket head therefore yields exact (when, seq) FIFO order.
type calendarQueue struct {
	cur      Cycle // earliest cycle any queued event may occupy
	windowN  int   // events currently stored in buckets
	buckets  [calendarWindow]bucket
	occupied [calendarWords]uint64 // bit per non-empty bucket
	overflow eventHeap             // events at or beyond cur+calendarWindow
}

// bucket is one cycle's events. head indexes the next event to pop;
// draining resets the slice in place so its capacity is reused.
type bucket struct {
	evs  []event
	head int
}

func newCalendarQueue() *calendarQueue {
	c := &calendarQueue{}
	c.overflow.evs = make([]event, 0, 64)
	return c
}

func (c *calendarQueue) len() int { return c.windowN + c.overflow.len() }

func (c *calendarQueue) push(ev event) {
	if ev.when < c.cur+calendarWindow {
		c.insert(ev)
		return
	}
	c.overflow.push(ev)
}

// insert appends ev to its window bucket and marks the bucket occupied.
func (c *calendarQueue) insert(ev event) {
	slot := int(ev.when & calendarMask)
	b := &c.buckets[slot]
	b.evs = append(b.evs, ev)
	c.occupied[slot>>6] |= 1 << uint(slot&63)
	c.windowN++
}

func (c *calendarQueue) popLE(limit Cycle) (event, bool) {
	if !c.settleLE(limit) {
		return event{}, false
	}
	slot := int(c.cur & calendarMask)
	b := &c.buckets[slot]
	ev := b.evs[b.head]
	b.evs[b.head] = event{} // release callback references
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		c.occupied[slot>>6] &^= 1 << uint(slot&63)
	}
	c.windowN--
	return ev, true
}

// settleLE advances cur to the cycle of the earliest pending event when
// that cycle is <= limit, migrating overflow events that enter the window.
// It reports whether the bucket at cur then holds a poppable event. cur is
// deliberately not advanced past limit: the engine may still push events
// for cycles in (limit, earliest-pending) afterwards, and the window must
// not have passed them.
func (c *calendarQueue) settleLE(limit Cycle) bool {
	if c.windowN == 0 {
		if c.overflow.len() == 0 {
			return false
		}
		// Window drained: jump it to the overflow's earliest cycle.
		when := c.overflow.evs[0].when
		if when > limit {
			return false
		}
		c.migrate(when)
		return true
	}
	delta := c.nextOccupied(int(c.cur & calendarMask))
	if delta == 0 {
		return c.cur <= limit
	}
	next := c.cur + Cycle(delta)
	if next > limit {
		return false
	}
	c.migrate(next)
	return true
}

// migrate advances the window start to target and pulls every overflow
// event that now falls inside [target, target+calendarWindow) into its
// bucket. The heap yields them in (when, seq) order, preserving bucket
// FIFO; their slots are necessarily ones the window has already drained.
func (c *calendarQueue) migrate(target Cycle) {
	c.cur = target
	horizon := target + calendarWindow
	for c.overflow.len() > 0 && c.overflow.evs[0].when < horizon {
		c.insert(c.overflow.pop())
	}
}

// nextOccupied returns the circular distance from slot start to the first
// occupied bucket (0 when start itself is occupied). Must only be called
// with windowN > 0.
func (c *calendarQueue) nextOccupied(start int) int {
	w := start >> 6
	bit := uint(start & 63)
	if word := c.occupied[w] >> bit; word != 0 {
		return bits.TrailingZeros64(word)
	}
	for i := 1; i <= calendarWords; i++ {
		idx := (w + i) & (calendarWords - 1)
		if word := c.occupied[idx]; word != 0 {
			return i<<6 - int(bit) + bits.TrailingZeros64(word)
		}
	}
	panic("sim: calendar queue lost an event (windowN > 0 with no occupied bucket)")
}
