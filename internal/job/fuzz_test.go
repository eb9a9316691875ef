package job

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// FuzzRequest checks the daemon's wire form never panics on hostile bytes:
// a document that decodes (as POST /jobs decodes it) and resolves to a
// Spec is a valid one, and its content address is stable — resolving the
// same request again gives the same Key. Seeds are requests built here
// over every workload form: a built-in name, an inline topology CSV and an
// inline operator graph, with a full INI config, DRAM bounds and a
// partition grid.
func FuzzRequest(f *testing.F) {
	var csv, graph, ini bytes.Buffer
	if err := topology.WriteCSV(&csv, topology.TinyNet()); err != nil {
		f.Fatal(err)
	}
	g, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		f.Fatal(err)
	}
	if err := topology.WriteGraph(&graph, g); err != nil {
		f.Fatal(err)
	}
	if err := config.Write(&ini, config.New()); err != nil {
		f.Fatal(err)
	}
	for _, r := range []Request{
		{Net: "TinyNet"},
		{Run: "csv", TopologyCSV: csv.String(), Array: "8x8", Dataflow: "ws", SRAM: "4,4,2", Workers: 2},
		{Graph: json.RawMessage(graph.Bytes()), DRAM: true, DRAMBandwidth: 4, VectorLanes: 8},
		{ConfigINI: ini.String(), Net: "AlexNet", Parts: "2x2"},
		{Net: "BERTTiny", Parts: "1x2"},
		{Net: "TinyNet", Array: "8x8x3"},
	} {
		doc, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"net":"TinyNet","parts":"0x2"}`))
	f.Add([]byte(`{"net":"TinyNet","dram_bw":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		spec, err := req.Spec()
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Request.Spec accepted an invalid spec: %v", err)
		}
		key := spec.Key()
		again, err := req.Spec()
		if err != nil {
			t.Fatalf("the same request resolved once, then failed: %v", err)
		}
		if again.Key() != key || spec.Key() != key {
			t.Fatalf("Key is not stable:\n%s\n%s", key, again.Key())
		}
		if strings.TrimSpace(key) == "" {
			t.Fatal("empty Key for an accepted spec")
		}
	})
}
