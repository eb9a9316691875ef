package topology

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseCSV checks the topology parser never panics and that accepted
// topologies survive a write/parse round trip.
func FuzzParseCSV(f *testing.F) {
	f.Add(sampleCSV)
	f.Add("conv, 8, 8, 3, 3, 2, 4, 1,\n")
	f.Add("Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,\n")
	f.Add("")
	f.Add("a,b,c\n")
	f.Fuzz(func(t *testing.T, input string) {
		topo, err := ParseCSV("fuzz", strings.NewReader(input))
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("ParseCSV returned invalid topology: %v", err)
		}
		for _, l := range topo.Layers {
			// Derived quantities must stay consistent on anything accepted.
			if l.MACOps() <= 0 || l.OfmapH() < 1 || l.OfmapW() < 1 {
				t.Fatalf("degenerate derived dims for %+v", l)
			}
			m, k, n := l.GEMM()
			if m*k*n != l.MACOps() {
				t.Fatalf("GEMM reduction inconsistent for %+v", l)
			}
		}
		// Names with quotes/commas/newlines are out of the dialect.
		for _, l := range topo.Layers {
			if strings.ContainsAny(l.Name, ",\"\n\r") || strings.TrimSpace(l.Name) != l.Name {
				return
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, topo); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		got, err := ParseCSV("fuzz", &buf)
		if err != nil {
			t.Fatalf("re-ParseCSV: %v", err)
		}
		if len(got.Layers) != len(topo.Layers) {
			t.Fatalf("round trip changed layer count")
		}
	})
}

// FuzzParseGraph checks the operator-graph reader never panics on hostile
// bytes and that an accepted graph validates and survives a write/parse
// round trip. Seeds are documents written here: the BERTTiny encoder, a
// flat network as a chain, and damaged copies.
func FuzzParseGraph(f *testing.F) {
	for _, name := range []string{"BERTTiny", "TinyNet"} {
		g, err := BuiltInGraph(name)
		if err != nil {
			f.Fatal(err)
		}
		var doc bytes.Buffer
		if err := WriteGraph(&doc, g); err != nil {
			f.Fatal(err)
		}
		f.Add(doc.String())
		f.Add(doc.String()[:doc.Len()/2])
		f.Add(strings.Replace(doc.String(), `"conv"`, `"softmax"`, 1))
		f.Add(strings.Replace(doc.String(), `"inputs": [`, `"inputs": ["nope", `, 1))
	}
	f.Add(`{"schema":"` + GraphSchema + `","nodes":[]}`)
	f.Add(`{"schema":"` + GraphSchema + `","nodes":[{"name":"a","kind":"softmax","rows":-1,"cols":2}]}`)
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseGraph("fuzz", strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ParseGraph returned an invalid graph: %v", err)
		}
		var first, second bytes.Buffer
		if err := WriteGraph(&first, g); err != nil {
			t.Fatalf("WriteGraph: %v", err)
		}
		again, err := ParseGraph("fuzz", bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of an accepted graph: %v\n%s", err, first.Bytes())
		}
		if err := WriteGraph(&second, again); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the graph (err %v):\n%s\n%s", err, first.Bytes(), second.Bytes())
		}
	})
}
