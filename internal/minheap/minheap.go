// Package minheap is a binary min-heap of int64 keys, the time-ordered queue
// behind the simulator's scheduled (not polled) work: the NIC model's next
// traffic emission per node and each router's pipeline timers. Callers pack
// (cycle, identifier) into one key with the cycle in the high bits, so integer
// order is time order with ties broken by identifier, a comparison is one
// instruction and an entry is one word.
package minheap

// Heap is a min-heap; the zero value is empty. h[0] is the smallest key.
// Ranging over a Heap visits every key (in heap order, not sorted).
type Heap []int64

// Push adds a key.
func (h *Heap) Push(k int64) {
	s := append(*h, k)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= k {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = k
}

// Pop removes and returns the smallest key. The heap must not be empty.
func (h *Heap) Pop() int64 {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	if len(s) > 0 {
		s.siftDown(last)
	}
	return top
}

// ReplaceMin replaces the smallest key with k: a Pop and a Push in one
// sift. The heap must not be empty.
func (h Heap) ReplaceMin(k int64) { h.siftDown(k) }

// siftDown places k starting from the root, moving smaller children up.
func (h Heap) siftDown(k int64) {
	i, n := 0, len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r] < h[child] {
			child = r
		}
		if k <= h[child] {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = k
}
