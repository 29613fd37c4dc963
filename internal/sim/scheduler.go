package sim

// scheduler is the event-queue contract behind Engine. Implementations must
// order events by (when, seq): FIFO among events scheduled for the same
// cycle. The engine's determinism contract — identical runs execute events
// in identical order — reduces to this property, which the randomized
// differential test in scheduler_test.go checks across implementations.
//
// Callers only push events with when >= the when of the last popped event
// (the engine enforces "no scheduling in the past"), which lets the
// calendar queue advance its window monotonically.
type scheduler interface {
	push(ev event)
	// popLE removes and returns the earliest event if its cycle is <= limit;
	// ok is false when the queue is empty or the earliest event is later.
	popLE(limit Cycle) (ev event, ok bool)
	len() int
}
