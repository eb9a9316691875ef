package memory

import (
	"math/rand"
	"testing"
)

// TestProbeSetAgainstMap drives the probe set and a reference map through
// the same random insert/remove/contains sequence.
func TestProbeSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := newProbeSet(64)
	ref := map[int64]bool{}
	live := 0
	for op := 0; op < 200_000; op++ {
		addr := int64(rng.Intn(300)) // force heavy collision and reuse
		switch {
		case live < 64 && rng.Intn(2) == 0:
			if !ref[addr] {
				live++
			}
			ref[addr] = true
			p.insert(addr)
		default:
			if ref[addr] {
				live--
			}
			delete(ref, addr)
			p.remove(addr)
		}
		if p.contains(addr) != ref[addr] {
			t.Fatalf("op %d: contains(%d) = %v, want %v", op, addr, p.contains(addr), ref[addr])
		}
		if op%1000 == 0 {
			for a := int64(0); a < 300; a++ {
				if p.contains(a) != ref[a] {
					t.Fatalf("op %d: drift at addr %d", op, a)
				}
			}
		}
	}
}

func TestProbeSetAddressZero(t *testing.T) {
	p := newProbeSet(4)
	if p.contains(0) {
		t.Error("empty set contains 0")
	}
	p.insert(0)
	if !p.contains(0) {
		t.Error("0 not found after insert")
	}
	p.insert(0) // duplicate insert is a no-op
	p.remove(0)
	if p.contains(0) {
		t.Error("0 still present after remove")
	}
	p.remove(0) // absent remove is a no-op
}

func TestProbeSetTinyCapacity(t *testing.T) {
	p := newProbeSet(0)
	p.insert(42)
	if !p.contains(42) || p.contains(43) {
		t.Error("tiny set misbehaves")
	}
}

// TestProbeSetClusterDeletion exercises backward-shift deletion inside a
// dense collision cluster.
func TestProbeSetClusterDeletion(t *testing.T) {
	p := newProbeSet(8)
	// Insert enough sequential addresses to form clusters.
	for a := int64(100); a < 108; a++ {
		p.insert(a)
	}
	// Remove from the middle and verify the rest stay findable.
	p.remove(103)
	p.remove(100)
	for a := int64(100); a < 108; a++ {
		want := a != 103 && a != 100
		if p.contains(a) != want {
			t.Errorf("contains(%d) = %v, want %v", a, p.contains(a), want)
		}
	}
}

// mapFIFO is the tests' reference residency model: a Go map beside the
// FIFO queue, counting what the buffers count.
type mapFIFO struct {
	capacity          int
	resident          map[int64]struct{}
	queue             []int64
	misses, evictions int64
}

// access touches addr and reports whether it missed and which address, if
// any, the miss evicted.
func (m *mapFIFO) access(addr int64) (miss bool, evicted int64, didEvict bool) {
	if _, ok := m.resident[addr]; ok {
		return false, 0, false
	}
	m.misses++
	if len(m.queue) == m.capacity {
		evicted, didEvict = m.queue[0], true
		delete(m.resident, evicted)
		m.queue = m.queue[1:]
		m.evictions++
	}
	if m.resident == nil {
		m.resident = make(map[int64]struct{})
	}
	m.resident[addr] = struct{}{}
	m.queue = append(m.queue, addr)
	return true, evicted, didEvict
}

// TestFIFOSetProbeModeAgainstMapMode runs the full fifoSet on the probe
// table — selected by a large region, and built lazily with no region at
// all — and a map reference over an identical access trace and requires
// identical behaviour.
func TestFIFOSetProbeModeAgainstMapMode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(region bool) *ReadBuffer {
		b, err := NewReadBuffer("x", 256, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if region {
			// A region larger than denseLimitWords selects the probe set.
			b.SetRegion(0, denseLimitWords+1)
		}
		return b
	}
	probe, plain, ref := mk(true), mk(false), &mapFIFO{capacity: 128}
	if probe.set.dense {
		t.Fatal("probe mode not selected")
	}
	for cycle := int64(0); cycle < 50_000; cycle++ {
		addr := int64(rng.Intn(500))
		probe.Consume(cycle, []int64{addr})
		plain.Consume(cycle, []int64{addr})
		ref.access(addr)
	}
	for name, b := range map[string]*ReadBuffer{"declared": probe, "undeclared": plain} {
		if b.DRAMReads != ref.misses || b.Evictions != ref.evictions {
			t.Errorf("%s probe mode diverged: %d/%d vs %d/%d",
				name, b.DRAMReads, b.Evictions, ref.misses, ref.evictions)
		}
	}
}

// TestFIFOSetDenseModeAgainstMapMode does the same for the dense mode.
func TestFIFOSetDenseModeAgainstMapMode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mkDense, err := NewWriteBuffer("d", 128, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mkDense.SetRegion(0, 1000)
	if !mkDense.set.dense {
		t.Fatal("dense mode not selected")
	}
	ref := &mapFIFO{capacity: 64}
	for cycle := int64(0); cycle < 50_000; cycle++ {
		addr := int64(rng.Intn(1000))
		mkDense.Consume(cycle, []int64{addr})
		ref.access(addr)
	}
	mkDense.Flush(50_000)
	// Every word written back was either evicted or still resident at the flush.
	if want := ref.evictions + int64(len(ref.queue)); mkDense.DRAMWrites != want {
		t.Errorf("dense mode diverged: %d vs %d", mkDense.DRAMWrites, want)
	}
}
