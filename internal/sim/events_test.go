package sim

import (
	"testing"
	"unsafe"
)

// TestEventSize pins the wheel record at 24 bytes or less: the wheel slots of
// a saturated replication hold tens of thousands of events, and a field added
// at full width would silently regrow every one of them.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 24 {
		t.Errorf("event is %d bytes, want <= 24", size)
	}
}
