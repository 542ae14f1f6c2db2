package minheap

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapOrdersLikeSort drives random interleavings of Push, Pop and
// ReplaceMin against a sorted-slice model, duplicates and negative keys
// included.
func TestHeapOrdersLikeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Heap
	var model []int64
	insert := func(k int64) {
		i := sort.Search(len(model), func(i int) bool { return model[i] >= k })
		model = append(model, 0)
		copy(model[i+1:], model[i:])
		model[i] = k
	}
	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(200)) - 50
		switch r := rng.Intn(4); {
		case r < 2 || len(h) == 0:
			h.Push(k)
			insert(k)
		case r == 2:
			if got := h.Pop(); got != model[0] {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, model[0])
			}
			model = model[1:]
		default:
			h.ReplaceMin(k)
			model = model[1:]
			insert(k)
		}
		if len(h) != len(model) {
			t.Fatalf("op %d: %d keys, want %d", op, len(h), len(model))
		}
		if len(h) > 0 && h[0] != model[0] {
			t.Fatalf("op %d: min = %d, want %d", op, h[0], model[0])
		}
	}
	for len(model) > 0 {
		if got := h.Pop(); got != model[0] {
			t.Fatalf("drain: Pop = %d, want %d", got, model[0])
		}
		model = model[1:]
	}
	if len(h) != 0 {
		t.Fatalf("%d keys left after draining", len(h))
	}
}

// TestHeapReusesStorage: a heap that stays within the capacity it reached
// allocates nothing — both users sit on per-cycle paths.
func TestHeapReusesStorage(t *testing.T) {
	var h Heap
	for i := 0; i < 64; i++ {
		h.Push(int64(i))
	}
	for len(h) > 0 {
		h.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 64; i > 0; i-- {
			h.Push(int64(i))
		}
		h.ReplaceMin(100)
		for len(h) > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per fill-and-drain within capacity, want 0", allocs)
	}
}
