package sim

import "flexvc/internal/packet"

// pendingReq is a request a node has generated and its NIC has not injected
// yet. Its generation cycle and destination are all the NIC keeps: the source
// is the queue's node, the size cfg.PacketSize, the class Request and the
// route state fresh, so the packet's store slot is allocated only when the
// request enters the network (tryInject). Past saturation most requests wait
// here, not in the network, and each costs 16 bytes instead of a slot.
type pendingReq struct {
	// gen is the generation cycle; on the free list, the next free record.
	gen int64
	dst packet.NodeID
}

// pendRef indexes a record in a pendingSlab; the NIC request queues hold them.
type pendRef uint32

// pendingSlab holds a network's waiting requests in fixed pages and recycles
// freed records LIFO through a free list threaded through their gen fields,
// the way packet.Store recycles its slots: the slab grows to the peak backlog
// and no further, a page is never copied, and reset keeps the pages for the
// next replication in the same scratch set. The first page is allocated by
// the first alloc.
type pendingSlab struct {
	pages []*[pendPageSize]pendingReq
	// slots is the number of records ever handed out since the last reset:
	// the peak backlog.
	slots    int
	freeHead pendRef
	nfree    int
}

// pendPageBits sets the page size: 1024 records, 16 KiB per page.
const (
	pendPageBits = 10
	pendPageSize = 1 << pendPageBits
	pendPageMask = pendPageSize - 1
)

func (s *pendingSlab) at(r pendRef) *pendingReq {
	return &s.pages[r>>pendPageBits][r&pendPageMask]
}

// alloc records a request generated at cycle gen toward dst.
func (s *pendingSlab) alloc(gen int64, dst packet.NodeID) pendRef {
	var r pendRef
	if s.nfree > 0 {
		r = s.freeHead
		s.freeHead = pendRef(s.at(r).gen)
		s.nfree--
	} else {
		r = pendRef(s.slots)
		if s.slots>>pendPageBits == len(s.pages) {
			s.pages = append(s.pages, new([pendPageSize]pendingReq))
		}
		s.slots++
	}
	*s.at(r) = pendingReq{gen: gen, dst: dst}
	return r
}

// free recycles a record; r must not be used again.
func (s *pendingSlab) free(r pendRef) {
	s.at(r).gen = int64(s.freeHead)
	s.freeHead = r
	s.nfree++
}

// inUse returns the number of waiting requests.
func (s *pendingSlab) inUse() int { return s.slots - s.nfree }

// reset forgets every record but keeps the pages.
func (s *pendingSlab) reset() { s.slots, s.nfree = 0, 0 }
