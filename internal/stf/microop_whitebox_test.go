package stf

import (
	"strings"
	"testing"
)

// TestIndexableBounds: Compile's bound on data objects and tasks is 2^28,
// both exclusive, and a rejection names it.
func TestIndexableBounds(t *testing.T) {
	if err := checkIndexable(MaxIndex, MaxIndex); err != nil {
		t.Errorf("2^28-1 data objects and tasks: %v", err)
	}
	for _, c := range []struct{ data, tasks int }{{1 << 28, 0}, {0, 1 << 28}, {1 << 31, 1 << 31}} {
		if err := checkIndexable(c.data, c.tasks); err == nil || !strings.Contains(err.Error(), "2^28") {
			t.Errorf("%d data objects, %d tasks: err = %v, want the 2^28 limit named", c.data, c.tasks, err)
		}
	}
}
