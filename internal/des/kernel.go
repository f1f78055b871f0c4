package des

import (
	"fmt"
)

// Kernel is the discrete-event core: a monotonic virtual clock plus a
// pending-event queue ordered by (time, pid, seq). The tie-break is the
// determinism contract — two events scheduled for the same instant
// always execute in (pid, insertion) order, so a run's event sequence is
// a pure function of the schedule calls, never of map iteration or
// goroutine timing. A Kernel is single-threaded by design: one scenario
// shard owns one Kernel, and shard-level parallelism happens above it.
type Kernel struct {
	now      int64
	seq      uint64
	queue    eventHeap
	executed int64
}

type event struct {
	time int64
	pid  int
	seq  uint64
	fn   func()
}

// NewKernel returns an empty kernel at virtual time 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() int64 { return k.now }

// Executed returns how many events have run so far.
func (k *Kernel) Executed() int64 { return k.executed }

// Pending returns the number of scheduled-but-unexecuted events.
func (k *Kernel) Pending() int { return len(k.queue) }

// At schedules fn to run for pid after delay ticks of virtual time.
// delay must be >= 0; the clock never moves backwards.
func (k *Kernel) At(pid int, delay int64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d for pid %d (virtual time is monotonic)", delay, pid))
	}
	k.seq++
	k.queue.push(event{time: k.now + delay, pid: pid, seq: k.seq, fn: fn})
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := k.queue.pop()
	k.now = ev.time
	k.executed++
	ev.fn()
	return true
}

// Run executes events until the queue drains or maxEvents have run in
// this call (maxEvents <= 0 means no bound). It returns the number of
// events executed by this call.
func (k *Kernel) Run(maxEvents int64) int64 {
	var n int64
	for maxEvents <= 0 || n < maxEvents {
		if !k.Step() {
			break
		}
		n++
	}
	return n
}

// advance moves the clock forward by d ticks directly, without an event.
// Sim uses it to charge grant costs in its single-server loop.
func (k *Kernel) advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative clock advance %d", d))
	}
	k.now += d
}

// eventHeap is a min-heap on (time, pid, seq), hand-rolled rather than
// built on container/heap: that package's any-typed Push/Pop box every
// event on the heap, two allocations per executed event, which would
// break the scenario layer's allocation-free per-event contract
// (internal/scenario's TestScenarioHotPathAllocs).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].pid != h[j].pid {
		return h[i].pid < h[j].pid
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{} // drop the closure reference for the collector
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < n && q.less(left, least) {
			least = left
		}
		if right < n && q.less(right, least) {
			least = right
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}
