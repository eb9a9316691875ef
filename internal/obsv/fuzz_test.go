package obsv

import (
	"bytes"
	"testing"
	"time"

	"scalesim/internal/obsv/cycleacct"
)

// FuzzParseManifest checks the manifest reader never panics on hostile
// bytes and that anything it accepts validates and survives a write/parse
// round trip. Seeds are documents generated here: a recorder's manifest
// with layers, spans, metrics, the process's resource use and a closed
// cycle account, plus damaged copies of it.
func FuzzParseManifest(f *testing.F) {
	rec := NewRecorder()
	stop := rec.Phase("simulate")
	rec.Metrics().Counter("layers").Inc()
	rec.ObserveLayer(0, time.Millisecond)
	rec.SpanSink().Emit(Span{Index: 0, Exec: time.Millisecond})
	stop()
	m := rec.Manifest()
	m.Tool, m.Run = "fuzz", "seed"
	m.Runtime.PeakRSSBytes, m.Runtime.MinorFaults, m.Runtime.MajorFaults = 20<<20, 3808, 1
	m.Runtime.UserSeconds, m.Runtime.SystemSeconds = 0.031, 0.004
	m.Layers = []LayerMetrics{{Index: 0, Name: "conv1", Cycles: 10, StallCycles: 2}}
	led := cycleacct.Ledger{}
	led.Add(cycleacct.PhaseArray, cycleacct.MACActive, 10)
	led.Add(cycleacct.PhaseLink, cycleacct.DRAMBwStall, 2)
	led.Total = 12
	var err error
	if m.CycleAccounting, err = cycleacct.NewReport([]cycleacct.NodeLedger{{Name: "conv1", Ledger: led}}); err != nil {
		f.Fatal(err)
	}
	var doc bytes.Buffer
	if err := m.WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add(doc.Bytes()[:doc.Len()/2])
	f.Add(bytes.Replace(doc.Bytes(), []byte(`"total_cycles": 12`), []byte(`"total_cycles": -12`), -1))
	f.Add(bytes.Replace(doc.Bytes(), []byte(Schema), []byte("scalesim.manifest/v3"), 1))
	f.Add([]byte(`{"schema":"` + Schema + `","cycle_accounting":{"nodes":[{"bins":null,"partitions":[{}]}]}}`))
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseManifest returned an invalid manifest: %v", err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if _, err := ParseManifest(buf.Bytes()); err != nil {
			t.Fatalf("re-parse of an accepted manifest: %v\n%s", err, buf.Bytes())
		}
	})
}
