package target

import (
	"runtime"
	"testing"
	"weak"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
	"xmrobust/internal/sparc"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// datasetWith finds fn's dataset with exactly the given raw values.
func datasetWith(t *testing.T, fn string, raws ...string) testgen.Dataset {
	t.Helper()
	f, ok := apispec.Default().Function(fn)
	if !ok {
		t.Fatalf("no hypercall %q", fn)
	}
	m, err := testgen.BuildMatrix(f, dict.Builtin())
	if err != nil {
		t.Fatal(err)
	}
next:
	for _, ds := range m.Datasets() {
		if len(ds.Values) != len(raws) {
			continue
		}
		for i, r := range raws {
			if ds.Values[i].Raw != r {
				continue next
			}
		}
		return ds
	}
	t.Fatalf("no %s dataset with values %v", fn, raws)
	return testgen.Dataset{}
}

// parked returns the kernel parked on the slot's machine, leaving it
// parked.
func parked(slot Slot) *xm.Kernel {
	m := machineOf(slot)
	k := takeKernel(m)
	parkKernel(m, k)
	return k
}

// TestPooledExecuteRecyclesKernel: an unbatched Execute on a pooled slot
// parks its testbed kernel, and the next test on that machine recycles
// the same kernel instead of building another.
func TestPooledExecuteRecyclesKernel(t *testing.T) {
	s := NewSim(Config{})
	if err := s.Provision(1); err != nil {
		t.Fatal(err)
	}
	ds := dataset(t, "XM_get_time", 0)
	slot := s.Acquire()
	if res := s.Execute(slot, ds, spec1()); res.RunErr != "" {
		t.Fatal(res.RunErr)
	}
	first := parked(slot)
	if first == nil {
		t.Fatal("Execute parked no kernel")
	}
	s.Release(slot)

	slot = s.Acquire()
	defer s.Release(slot)
	if res := s.Execute(slot, ds, spec1()); res.RunErr != "" {
		t.Fatal(res.RunErr)
	}
	if again := parked(slot); again != first {
		t.Fatal("second test parked a different kernel")
	}
}

// TestCrashedLeaseParksNoKernel: a lease whose last test crashes the
// simulator must not park its kernel — Release discards the crashed
// machine, and a parked entry would keep it alive for nothing.
func TestCrashedLeaseParksNoKernel(t *testing.T) {
	ok := dataset(t, "XM_get_time", 0)
	crash := datasetWith(t, "XM_set_timer", "1", "1", "1")
	for _, tc := range []struct {
		name string
		run  func(s *Sim, slot Slot) []Result
	}{
		{"batch", func(s *Sim, slot Slot) []Result {
			return s.ExecuteBatch(slot, []testgen.Dataset{ok, crash}, spec1())
		}},
		{"execute", func(s *Sim, slot Slot) []Result {
			return []Result{{}, s.Execute(slot, crash, spec1())}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim(Config{})
			if err := s.Provision(1); err != nil {
				t.Fatal(err)
			}
			slot := s.Acquire()
			rs := tc.run(s, slot)
			if rs[0].SimCrashed || !rs[1].SimCrashed {
				t.Fatalf("crashed = %v, %v; want false, true", rs[0].SimCrashed, rs[1].SimCrashed)
			}
			if parked(slot) != nil {
				t.Fatal("kernel parked after a lease ending in a crash")
			}
			s.Release(slot)
			if st := s.PoolStats(); st.Discarded != 1 {
				t.Fatalf("crashed machine not discarded: %+v", st)
			}
		})
	}
}

// TestDroppedMachineTakesItsKernel: a machine the pool does not keep
// (here: its free list is full) must become garbage together with its
// parked kernel — nothing in the target may keep it alive.
func TestDroppedMachineTakesItsKernel(t *testing.T) {
	s := NewSim(Config{})
	if err := s.Provision(1); err != nil { // the free list holds one machine
		t.Fatal(err)
	}
	ds := dataset(t, "XM_get_time", 0)
	kept, dropped := s.Acquire(), s.Acquire()
	var machines []weak.Pointer[sparc.Machine]
	for _, slot := range []Slot{kept, dropped} {
		if res := s.Execute(slot, ds, spec1()); res.RunErr != "" {
			t.Fatal(res.RunErr)
		}
		if parked(slot) == nil {
			t.Fatal("Execute parked no kernel")
		}
		machines = append(machines, weak.Make(machineOf(slot)))
	}
	s.Release(kept)
	s.Release(dropped) // over capacity: the pool drops this machine
	runtime.GC()
	live := 0
	for _, w := range machines {
		if w.Value() != nil {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d of 2 machines alive after the pool kept one", live)
	}
	runtime.KeepAlive(s) // the pool, and the machine it kept
}
