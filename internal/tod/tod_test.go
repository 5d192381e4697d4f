package tod

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultSyncPeriodIs4ms(t *testing.T) {
	p := DefaultSync().Period()
	if math.Abs(p-4.096e-3) > 1e-12 {
		t.Errorf("default sync period = %g, want 4.096ms", p)
	}
}

func TestSyncConditionValidate(t *testing.T) {
	if err := DefaultSync().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SyncCondition{
		{Bits: 0},
		{Bits: 64},
		{Bits: 4, Match: 16},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("condition %+v validated", c)
		}
	}
}

func TestMisalign(t *testing.T) {
	c := DefaultSync()
	m := c.Misalign(1)
	if m.Match != 1 || m.Bits != c.Bits {
		t.Errorf("Misalign(1) = %+v", m)
	}
	// Wrapping.
	w := c.Misalign(1 << c.Bits)
	if w.Match != 0 {
		t.Errorf("full-period misalign = %+v", w)
	}
}

// Property: misalignment offsets compose additively modulo the period.
func TestMisalignAdditiveProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		c := DefaultSync()
		m1 := c.Misalign(uint64(a)).Misalign(uint64(b))
		m2 := c.Misalign(uint64(a) + uint64(b))
		return m1 == m2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
