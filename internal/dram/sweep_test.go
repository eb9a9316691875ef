package dram

import (
	"math/rand"
	"testing"

	"scalesim/internal/trace"
)

// sweepFeed draws the sweeps a replaying SRAM buffer forwards: per call one
// run of up to 32 words at stride K-1 (K 768, 3072 or random), sometimes a
// second beside it, moved by a step that is mostly one word but also zero,
// negative, the whole skew back, or a random jump, and cut into sweeps of
// random length with write-backs at the same cycle between them. Idle gaps
// as in skewedFeed let the floor bind, and long feeds cross refresh
// windows.
func sweepFeed(rng *rand.Rand, calls int64) []trace.Sweep {
	var feed []trace.Sweep
	var cycle, n int64
	for n < calls {
		k := [...]int64{768, 3072, 2 + rng.Int63n(5000)}[rng.Intn(3)]
		step := [...]int64{1, 1, 1, 0, -1, 2, 1 - k, 1 + rng.Int63n(64)}[rng.Intn(8)]
		times := 1 + rng.Int63n(400)
		base := rng.Int63n(1<<22) + times*max(0, -step)
		runs := []trace.Run{{Base: base, Stride: k - 1, Count: 1 + rng.Int63n(32)}}
		if rng.Intn(4) == 0 {
			runs = append(runs, trace.Run{Base: base + 1 + rng.Int63n(1<<16), Stride: k - 1, Count: runs[0].Count})
		}
		for j := int64(0); j < times; {
			l := min(times-j, 1+rng.Int63n(150))
			shifted := make([]trace.Run, len(runs))
			for i, r := range runs {
				r.Base += j * step
				shifted[i] = r
			}
			feed = append(feed, trace.Sweep{Cycle: cycle + j, Runs: shifted, Step: step, Times: l})
			j += l
			if rng.Intn(8) == 0 { // a write-back at the sweep's last cycle
				wb := trace.Run{Base: 1<<23 + rng.Int63n(1<<20), Stride: 1, Count: 1 + rng.Int63n(8)}
				feed = append(feed, trace.Sweep{Cycle: cycle + j - 1, Runs: []trace.Run{wb}, Times: 1})
			}
		}
		cycle += times
		n += times
		switch rng.Intn(6) {
		case 0: // idle long enough for the floor to bind
			cycle += 50_000 + rng.Int63n(200_000)
		case 1:
			cycle += rng.Int63n(2_000)
		default:
			cycle += rng.Int63n(4)
		}
	}
	return feed
}

// sweepsMatch feeds the sweeps whole to a model and unrolled to the per-word
// reference, requiring equal Stats after every sweep and equal device state
// at the end, and returns the model.
func sweepsMatch(t *testing.T, cfg Config, feed []trace.Sweep) *Model {
	t.Helper()
	got, err := New(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	want, _ := New(cfg)
	ref := trace.Runs(trace.ConsumerFunc(func(cycle int64, addrs []int64) { refConsume(want, cycle, addrs) }))
	for k, sw := range feed {
		got.ConsumeSweep(sw)
		sw.Unroll(ref)
		if got.Stats() != want.Stats() {
			t.Fatalf("%+v, sweep %d %+v:\nmodel     %+v\nreference %+v", cfg, k, sw, got.Stats(), want.Stats())
		}
	}
	if !sameDevice(got, want) {
		t.Errorf("%+v: final device state differs from the reference", cfg)
	}
	return got
}

// TestSweepReplayMatchesPerWordReference: sweeps taken whole, stretches
// replayed in one step, leave the model exactly as the per-word reference
// serving every call, over TestShiftReplayMatchesPerWordReference's
// geometries. On DDR3 most calls must have been replayed in stretches.
func TestSweepReplayMatchesPerWordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3803))
	cfgs := []Config{DDR3(), hbm2}
	geometries := 300
	if testing.Short() {
		geometries = 40
	}
	for i := 0; i < geometries; i++ {
		cfgs = append(cfgs, randomGeometry(rng))
	}
	for ci, cfg := range cfgs {
		got := sweepsMatch(t, cfg, sweepFeed(rng, 3000))
		if calls, _, sweeps, _, _ := got.Replayed(); ci == 0 && (sweeps == 0 || calls < 1500) {
			t.Errorf("DDR3: %d calls replayed in %d stretches, want most of 3000 calls in stretches", calls, sweeps)
		}
	}
}

// TestSweepStretchBounds: each bound on a stretch — the floor at its last
// arrival, the proof's horizon and the runs' headroom — holds where it
// binds, and the calls past it are served as the per-word reference serves
// them.
func TestSweepStretchBounds(t *testing.T) {
	ddr := DDR3()
	t.Run("floor stops being free mid-sweep", func(t *testing.T) {
		// One word a call keeps the bank's cmdFree a dozen cycles ahead of
		// the arrivals, so a long stretch's last floor is never free: the
		// calls go one by one through ConsumeRuns, which still replays them,
		// but for the refresh due at 7800, whose hold makes the call after it
		// served in full and the proof re-armed behind it.
		sw := trace.Sweep{Cycle: 7000, Runs: []trace.Run{{Base: 0, Stride: 1, Count: 1}}, Step: 1, Times: 1500}
		m := sweepsMatch(t, ddr, []trace.Sweep{sw})
		calls, _, sweeps, _, _ := m.Replayed()
		if calls >= sw.Times-2 || calls < sw.Times/2 || sweeps > 2 || m.Stats().Refreshes != 1 {
			t.Errorf("replayed %d of %d calls in %d stretches across %d refreshes, want most of them call by call, "+
				"and the call the refresh holds served in full", calls, sw.Times, sweeps, m.Stats().Refreshes)
		}
	})
	t.Run("the horizon ends the stretch", func(t *testing.T) {
		// A burst backs up bank 0; each pair call then misses twice on bank
		// 1, whose cmdFree outgrows the bus: a finite horizon (see
		// TestShiftReplayConditions).
		pair := trace.Run{Base: 2048, Stride: 8 * 2048, Count: 2}
		feed := []trace.Sweep{
			{Cycle: 0, Runs: []trace.Run{{Base: 0, Stride: 1, Count: 2048}}, Times: 1},
			{Cycle: 0, Runs: []trace.Run{pair}, Step: 1, Times: 3},
		}
		probe, _ := New(ddr)
		for _, sw := range feed {
			sw.Unroll(probe)
		}
		left := probe.proof.left
		if left <= 0 || left > 100 {
			t.Fatalf("proof covers %d calls, want a horizon in (0, 100]", left)
		}
		pair.Base += 3
		feed = append(feed, trace.Sweep{Cycle: 3, Runs: []trace.Run{pair}, Step: 1, Times: left + 5})
		m := sweepsMatch(t, ddr, feed)
		if calls, _, sweeps, _, _ := m.Replayed(); sweeps == 0 || calls < left {
			t.Errorf("replayed %d calls in %d stretches, want the %d the horizon covers", calls, sweeps, left)
		}
	})
	t.Run("headroom ends the stretch", func(t *testing.T) {
		// Eight words at stride 767 based at 200: 60 words of headroom, so
		// the stretch stops short of the row crossing at call 60.
		sw := trace.Sweep{Cycle: 0, Runs: []trace.Run{{Base: 200, Stride: 767, Count: 8}}, Step: 1, Times: 200}
		m := sweepsMatch(t, ddr, []trace.Sweep{sw})
		if calls, _, sweeps, _, _ := m.Replayed(); sweeps < 2 || calls == 0 {
			t.Errorf("replayed %d calls in %d stretches, want a stretch on each side of the row crossing", calls, sweeps)
		}
	})
	t.Run("a falling sweep stops at the armed call", func(t *testing.T) {
		// A rising sweep arms the proof at base 2051, two words above a row
		// start; the falling one after it is covered down to that base and
		// no further: a call one word lower starts in the row below.
		run := trace.Run{Base: 2050, Stride: 767, Count: 8}
		feed := []trace.Sweep{{Cycle: 0, Runs: []trace.Run{run}, Step: 1, Times: 40}}
		run.Base += 39
		feed = append(feed, trace.Sweep{Cycle: 40, Runs: []trace.Run{run}, Step: -1, Times: 60})
		m := sweepsMatch(t, ddr, feed)
		if calls, _, sweeps, _, _ := m.Replayed(); sweeps < 2 || calls < 70 {
			t.Errorf("replayed %d calls in %d stretches, want both sweeps down to the armed call in stretches", calls, sweeps)
		}
	})
}

// TestBackwardCallSeesLaterHold pins the call-order contract: a call that
// arrives at an earlier cycle than the call before it (the DRAM read
// stream carries one operand's block after the other's) is served after
// it, behind the refresh hold the later call caught up to. ConsumeRuns,
// ConsumeSweep and the per-word reference serve it identically.
func TestBackwardCallSeesLaterHold(t *testing.T) {
	ddr := DDR3()
	// The filter-like sweep crosses the refresh due at 7800; the IFMAP-like
	// one arrives 150 cycles earlier, after it, on other banks and rows.
	feed := []trace.Sweep{
		{Cycle: 7790, Runs: []trace.Run{{Base: 1 << 20, Stride: 767, Count: 8}}, Step: 1, Times: 40},
		{Cycle: 7680, Runs: []trace.Run{{Base: 3 << 11, Stride: 1, Count: 3}}, Step: 1, Times: 40},
		{Cycle: 7830, Runs: []trace.Run{{Base: 1<<20 + 40, Stride: 767, Count: 8}}, Step: 1, Times: 40},
	}
	whole := sweepsMatch(t, ddr, feed)
	calls, _ := New(ddr)
	for _, sw := range feed {
		sw.Unroll(calls)
	}
	if whole.Stats() != calls.Stats() {
		t.Errorf("ConsumeSweep %+v, ConsumeRuns %+v", whole.Stats(), calls.Stats())
	}
	// Refresh catch-up is monotone: the backward calls neither undo nor
	// repeat the refresh the first sweep applied.
	if hold := ddr.TREFI + ddr.TRFC; whole.refreshHold != hold || whole.Stats().Refreshes != 1 {
		t.Errorf("refresh hold %d after %d refreshes, want %d after 1", whole.refreshHold, whole.Stats().Refreshes, hold)
	}
}
