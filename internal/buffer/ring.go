package buffer

// ring is a growable FIFO over a circular slice. The simulator's queues
// (input VC FIFOs, output staging buffers) previously popped by reslicing,
// which abandons the backing array's head and forces a reallocation once the
// append pointer reaches the end; at steady state that is one allocation per
// handful of packets on every queue in the network. The ring reuses its
// storage, so steady-state enqueue/dequeue traffic allocates nothing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// emptied returns the ring with no elements and the same storage.
func (r ring[T]) emptied() ring[T] { return ring[T]{buf: r.buf} }

// len returns the number of queued elements.
func (r *ring[T]) len() int { return r.n }

// push appends e at the tail, growing the storage when full.
func (r *ring[T]) push(e T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	r.buf[tail] = e
	r.n++
}

// front returns a pointer to the head element; it panics on an empty ring.
func (r *ring[T]) front() *T {
	if r.n == 0 {
		panic("buffer: front of empty ring")
	}
	return &r.buf[r.head]
}

// pop removes and returns the head element; it panics on an empty ring.
func (r *ring[T]) pop() T {
	if r.n == 0 {
		panic("buffer: pop from empty ring")
	}
	e := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop references so packets can be collected/reused
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return e
}

// grow doubles the storage, linearising the queue at the front.
func (r *ring[T]) grow() {
	cap := len(r.buf) * 2
	if cap == 0 {
		cap = 4
	}
	nb := make([]T, cap)
	for i := 0; i < r.n; i++ {
		idx := r.head + i
		if idx >= len(r.buf) {
			idx -= len(r.buf)
		}
		nb[i] = r.buf[idx]
	}
	r.buf = nb
	r.head = 0
}
