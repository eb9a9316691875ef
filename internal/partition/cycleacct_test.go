package partition

import (
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// TestLedgerClosesBooks: a scale-out run's node ledger accounts every
// provisioned array-cycle — ActivePartitions x runtime — with each
// partition stretched to the layer clock by a skew-wait bin.
func TestLedgerClosesBooks(t *testing.T) {
	// A 10x10 ofmap (100 pixels) over Pr=3 slices as 34,34,32 pixels; on
	// an 8-row array that is 5,5,4 folds, so the short slice finishes
	// early and waits — the skew bin is guaranteed to be populated.
	l := topology.Layer{Name: "conv", IfmapH: 12, IfmapW: 12, FilterH: 3,
		FilterW: 3, Channels: 8, NumFilters: 24, Stride: 1}
	base := config.New().WithSRAM(4, 4, 2)
	res, err := Run(l, base, spec(3, 2, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.Ledger == nil {
		t.Fatal("scale-out run carries no ledger")
	}
	node := cycleacct.NodeLedger{Ledger: *res.Node.Ledger, Partitions: res.Node.Partitions}
	if err := node.Check(); err != nil {
		t.Fatal(err)
	}
	if want := res.ActivePartitions * res.Cycles; node.Total != want {
		t.Errorf("node total %d, want %d provisioned array-cycles (%d partitions x %d cycles)",
			node.Total, want, res.ActivePartitions, res.Cycles)
	}
	if got := int64(len(node.Partitions)); got != res.ActivePartitions {
		t.Errorf("partition ledgers = %d, active partitions = %d", got, res.ActivePartitions)
	}
	for _, p := range node.Partitions {
		if p.Total != res.Cycles {
			t.Errorf("partition (%d,%d) total %d, layer clock %d", p.Pi, p.Pj, p.Total, res.Cycles)
		}
	}
	if node.Category(cycleacct.PartitionSkew) == 0 {
		t.Error("uneven grid accrued no partition_skew_wait cycles")
	}
	if node.Category(cycleacct.MACActive) == 0 {
		t.Error("no mac_active cycles")
	}
}

// TestLedgerCacheRoundTrip: partition cache hits must replay ledgers
// exactly, including through a disk cache round trip.
func TestLedgerCacheRoundTrip(t *testing.T) {
	l := testLayer()
	base := config.New().WithSRAM(4, 4, 2)
	s := spec(2, 2, 8, 8)

	fresh, err := Run(l, base, s, Options{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c1, err := simcache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(l, base, s, Options{Cache: c1}); err != nil {
		t.Fatal(err)
	}
	c2, err := simcache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Run(l, base, s, Options{Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats().Hits == 0 || c2.Stats().Misses != 0 {
		t.Fatalf("disk replay: hits=%d misses=%d, want all hits", c2.Stats().Hits, c2.Stats().Misses)
	}
	if replay.Node.Ledger == nil {
		t.Fatal("cached run lost its ledger")
	}
	if !reflect.DeepEqual(*replay.Node.Ledger, *fresh.Node.Ledger) ||
		!reflect.DeepEqual(replay.Node.Partitions, fresh.Node.Partitions) {
		t.Errorf("replayed ledger differs:\n fresh  %+v %+v\n replay %+v %+v",
			*fresh.Node.Ledger, fresh.Node.Partitions, *replay.Node.Ledger, replay.Node.Partitions)
	}
}
