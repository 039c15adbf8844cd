package replica

import "testing"

// A primary configured for replication but with no standby attached yet
// pays nothing per record: Ship frames a record only for a subscriber.
func TestShipWithoutStandbyDoesNotCopy(t *testing.T) {
	s := NewShipper(ShipperOptions{})
	payload := make([]byte, 64<<10)
	if n := testing.AllocsPerRun(100, func() { s.Ship(1, payload) }); n != 0 {
		t.Fatalf("shipping a %d-byte record to no standby allocated %.1f times, want 0", len(payload), n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shipped != 101 {
		t.Fatalf("shipped = %d, want every record counted (101)", s.shipped)
	}
}
