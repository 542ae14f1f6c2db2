package core

import "fmt"

// SelectionFn identifies the VC selection function FlexVC uses to pick one VC
// among the allowed range (Section VI-A of the paper).
type SelectionFn uint8

const (
	// JSQ (Join the Shortest Queue) picks the allowed VC with the most free
	// space, balancing utilisation. It is the paper's default.
	JSQ SelectionFn = iota
	// HighestVC picks the highest-index allowed VC with room.
	HighestVC
	// LowestVC picks the lowest-index allowed VC with room.
	LowestVC
	// RandomVC picks uniformly at random among allowed VCs with room.
	RandomVC
)

// SelectionFns lists every selection function, in a stable order, for sweeps.
var SelectionFns = []SelectionFn{JSQ, HighestVC, LowestVC, RandomVC}

// String implements fmt.Stringer.
func (f SelectionFn) String() string {
	switch f {
	case JSQ:
		return "jsq"
	case HighestVC:
		return "highest"
	case LowestVC:
		return "lowest"
	case RandomVC:
		return "random"
	default:
		return fmt.Sprintf("selection(%d)", uint8(f))
	}
}

// ParseSelectionFn parses the string form produced by String.
func ParseSelectionFn(s string) (SelectionFn, error) {
	for _, f := range SelectionFns {
		if f.String() == s {
			return f, nil
		}
	}
	return JSQ, fmt.Errorf("unknown VC selection function %q", s)
}

// VCCandidate describes one VC of the downstream port as seen by the VC
// selector: its index and the free space (in phits) the sender currently has
// credits for.
type VCCandidate struct {
	VC   int
	Free int
}

// randSource is the minimal interface the random selection function needs;
// *rand.Rand and the simulator's deterministic PRNG both satisfy it.
type randSource interface {
	Intn(n int) int
}

// Select picks one VC among candidates that can hold a packet of `size`
// phits, according to the selection function. It returns the chosen VC and
// true, or -1 and false when no candidate has room. Candidates must be sorted
// by ascending VC index (ties in JSQ are broken toward the lower index, which
// keeps the choice deterministic).
func (f SelectionFn) Select(candidates []VCCandidate, size int, rng randSource) (int, bool) {
	switch f {
	case JSQ:
		best, bestFree := -1, -1
		for _, c := range candidates {
			if c.Free >= size && c.Free > bestFree {
				best, bestFree = c.VC, c.Free
			}
		}
		return best, best >= 0
	case HighestVC:
		for i := len(candidates) - 1; i >= 0; i-- {
			if candidates[i].Free >= size {
				return candidates[i].VC, true
			}
		}
		return -1, false
	case LowestVC:
		for _, c := range candidates {
			if c.Free >= size {
				return c.VC, true
			}
		}
		return -1, false
	case RandomVC:
		// Count the eligible VCs, draw one index, then walk to it: no list
		// of them is built.
		eligible := 0
		for _, c := range candidates {
			if c.Free >= size {
				eligible++
			}
		}
		if eligible == 0 {
			return -1, false
		}
		pick := 0
		if rng != nil {
			pick = rng.Intn(eligible)
		}
		for _, c := range candidates {
			if c.Free >= size {
				if pick == 0 {
					return c.VC, true
				}
				pick--
			}
		}
		return -1, false // unreachable: pick < eligible
	default:
		return -1, false
	}
}
