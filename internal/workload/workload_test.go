package workload

import (
	"reflect"
	"testing"

	"smores/internal/gpu"
)

func TestFleetShape(t *testing.T) {
	fleet := Fleet()
	if len(fleet) != 42 {
		t.Fatalf("fleet has %d apps, paper evaluates 42", len(fleet))
	}
	counts := map[string]int{}
	names := map[string]bool{}
	for _, p := range fleet {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate app name %s", p.Name)
		}
		names[p.Name] = true
		counts[p.Suite]++
	}
	want := map[string]int{"rodinia": 20, "lonestar": 6, "mlperf": 8, "exascale": 8}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %s has %d apps, want %d", suite, counts[suite], n)
		}
	}
	if got := Suites(); len(got) != 4 || got[0] != "rodinia" {
		t.Errorf("Suites = %v", got)
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("lulesh")
	if !ok || p.Suite != "exascale" {
		t.Errorf("ByName(lulesh) = %+v, %v", p, ok)
	}
	if _, ok := ByName("nosuchapp"); ok {
		t.Error("unknown app found")
	}
}

func TestProfileValidation(t *testing.T) {
	good := Fleet()[0]
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Suite = "" },
		func(p *Profile) { p.BurstLen = 0.5 },
		func(p *Profile) { p.ThinkMean = -1 },
		func(p *Profile) { p.Sequential = 1.5 },
		func(p *Profile) { p.Reuse = -0.1 },
		func(p *Profile) { p.WriteFrac = 2 },
		func(p *Profile) { p.WorkingSetSectors = 0 },
		func(p *Profile) { p.MSHRs = 0 },
	}
	for i, mut := range bad {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
		if _, err := NewGenerator(p, 1); err == nil {
			t.Errorf("mutation %d should fail generator construction", i)
		}
	}
}

func TestOfferedLoad(t *testing.T) {
	p := Profile{BurstLen: 6, ThinkMean: 2}
	if got := p.OfferedLoad(); got != 0.75 {
		t.Errorf("OfferedLoad = %g", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := Fleet()[0]
	a, err := NewGenerator(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		x, _ := a.Next()
		y, _ := b.Next()
		if x != y {
			t.Fatalf("streams diverged at access %d", i)
		}
	}
	c, err := NewGenerator(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := NewGenerator(p, 42)
	same := 0
	for i := 0; i < 1000; i++ {
		x, _ := a2.Next()
		y, _ := c.Next()
		if x == y {
			same++
		}
	}
	if same > 900 {
		t.Error("different seeds produce nearly identical streams")
	}
}

func TestGeneratorRespectsProfile(t *testing.T) {
	p := Profile{
		Name: "x", Suite: "y",
		BurstLen: 8, ThinkMean: 10, Sequential: 0.5, Reuse: 0.1,
		WriteFrac: 0.25, WorkingSetSectors: 1 << 16, MSHRs: 8,
	}
	g, err := NewGenerator(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.Profile().Name != "x" {
		t.Error("profile accessor broken")
	}
	const n = 200000
	writes, thinks := 0, int64(0)
	var accesses []gpu.Access
	for i := 0; i < n; i++ {
		a, ok := g.Next()
		if !ok {
			t.Fatal("generator ended")
		}
		if a.Sector >= p.WorkingSetSectors {
			t.Fatalf("sector %d outside working set", a.Sector)
		}
		if a.Write {
			writes++
		}
		thinks += a.Think
		accesses = append(accesses, a)
	}
	if f := float64(writes) / n; f < 0.22 || f > 0.28 {
		t.Errorf("write fraction = %.3f, want ≈0.25", f)
	}
	// Mean think per access ≈ ThinkMean / BurstLen.
	if m := float64(thinks) / n; m < 0.9 || m > 1.7 {
		t.Errorf("mean think per access = %.2f, want ≈1.25", m)
	}
	// Sequentiality: most consecutive pairs advance by one sector.
	seqPairs := 0
	for i := 1; i < len(accesses); i++ {
		if accesses[i].Sector == accesses[i-1].Sector+1 {
			seqPairs++
		}
	}
	if f := float64(seqPairs) / n; f < 0.6 {
		t.Errorf("sequential pair fraction = %.2f (burst length 8 should give ≈0.85)", f)
	}
}

func TestGeneratorBurstLengths(t *testing.T) {
	p := Profile{
		Name: "b", Suite: "s",
		BurstLen: 4, ThinkMean: 0, Sequential: 0, Reuse: 0,
		WriteFrac: 0, WorkingSetSectors: 1 << 20, MSHRs: 8,
	}
	g, err := NewGenerator(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Measure mean run length of +1 strides.
	runs, runLen, cur := 0, 0, 1
	var prev uint64
	for i := 0; i < 100000; i++ {
		a, _ := g.Next()
		if i > 0 {
			if a.Sector == prev+1 {
				cur++
			} else {
				runs++
				runLen += cur
				cur = 1
			}
		}
		prev = a.Sector
	}
	mean := float64(runLen) / float64(runs)
	if mean < 3.2 || mean > 4.8 {
		t.Errorf("mean burst length = %.2f, want ≈4", mean)
	}
}

// TestGeneratorResetMatchesNew leaves a generator mid-burst, with a
// full reuse history, Resets it to another profile and seed, and holds
// it to a fresh NewGenerator: the same state bit for bit and the same
// stream. A Reset to an invalid profile fails and changes nothing.
func TestGeneratorResetMatchesNew(t *testing.T) {
	fleet := Fleet()
	g, err := NewGenerator(fleet[0], 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range append(fleet[1:6:6], fleet[0]) {
		for n := 0; len(g.history) < historyLen || g.burstLeft == 0; n++ {
			if n > 1_000_000 {
				t.Fatalf("case %d: no mid-burst state with a full history", i)
			}
			g.Next()
		}
		seed := uint64(100 + i)
		if err := g.Reset(p, seed); err != nil {
			t.Fatal(err)
		}
		want, err := NewGenerator(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*g, *want) {
			t.Fatalf("%s: a Reset generator's state differs from NewGenerator's", p.Name)
		}
		for n := 0; n < 20000; n++ {
			a, _ := g.Next()
			b, _ := want.Next()
			if a != b {
				t.Fatalf("%s: access %d after Reset = %+v, NewGenerator's %+v", p.Name, n, a, b)
			}
		}
	}
	before := *g
	bad := fleet[0]
	bad.WorkingSetSectors = 0
	if err := g.Reset(bad, 1); err == nil {
		t.Fatal("Reset accepted an invalid profile")
	}
	if !reflect.DeepEqual(*g, before) {
		t.Fatal("a failed Reset changed the generator")
	}
}
