package obs

import "testing"

func TestFloatCounterIgnoresNonPositive(t *testing.T) {
	var f FloatCounter
	f.Add(-1)
	f.Add(0)
	f.Add(2.25)
	f.Add(0.75)
	if f.Value() != 3 {
		t.Fatalf("float counter = %v, want 3", f.Value())
	}
}

func TestFloatCounterNilSafe(t *testing.T) {
	var f *FloatCounter
	f.Add(1.5)
	if f.Value() != 0 {
		t.Fatalf("nil float counter must read 0")
	}
}
