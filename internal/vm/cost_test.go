package vm

import "testing"

// TestSPSCostOrdering: the default prices keep §4's access-cost ordering
// of the safe pointer store organisations, array < twolevel < hash.
func TestSPSCostOrdering(t *testing.T) {
	c := DefaultCosts()
	if !(c.SPSArray < c.SPSTwoLevel && c.SPSTwoLevel < c.SPSHash) {
		t.Errorf("cost order must be array < twolevel < hash: %d %d %d",
			c.SPSArray, c.SPSTwoLevel, c.SPSHash)
	}
}
