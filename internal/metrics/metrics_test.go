package metrics

import (
	"math"
	"testing"
)

func TestFlowAccumulates(t *testing.T) {
	var f Flow
	f.Add(100)
	f.Add(200)
	if f.Bytes != 300 || f.Messages != 2 {
		t.Fatalf("flow = %+v", f)
	}
	if math.Abs(f.KB()-300.0/1024) > 1e-12 {
		t.Fatalf("KB = %g", f.KB())
	}
}

func TestNilFlowDiscards(t *testing.T) {
	var f *Flow
	f.Add(100) // must not panic
}
