// Command topogen emits a built-in workload — a flat network topology as
// a SCALE-Sim CSV file, or an operator graph as scalesim.graph/v1 JSON —
// so the bundled workloads (ResNet50, the Table IV language models, the
// BERT encoder blocks) can be fed to other tools or edited by hand.
//
// Usage:
//
//	topogen -net Resnet50 [-o resnet50.csv]
//	topogen -net BERTTiny -format graph -o bert_tiny.json
//	topogen -net Resnet50 -format graph      # flat net lifted to a chain graph
//	topogen -net BERTTiny -stats
//	topogen -list
//
// -stats prints the canonical shape keys (topology.Layer.Key for flat
// nets, topology.Node.Key for graphs) instead of the workload: one row per
// distinct key with its repeat count, so users can see how much reuse a
// workload exposes to the per-layer result cache before running a sweep.
// For graphs the stats additionally report node/edge counts and a
// per-operator-kind breakdown; keys are kind-qualified, so a GEMM and a
// same-shaped attention matmul dedup separately.
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"scalesim"
	"scalesim/internal/cliobs"
	"scalesim/internal/topology"
)

func main() { cliobs.Main("topogen", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		net    = fs.String("net", "", "built-in workload name")
		out    = fs.String("o", "", "output file (default stdout)")
		format = fs.String("format", "", "output format: csv or graph (default: the workload's native form)")
		list   = fs.Bool("list", false, "list built-in workloads and exit")
		stats  = fs.Bool("stats", false, "print shape-key dedup stats instead of the workload")
	)
	obs := cliobs.RegisterLog(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := obs.Start("topogen", nil)
	if err != nil {
		return err
	}
	defer stopObs()
	if *list {
		for _, name := range scalesim.BuiltInTopologyNames() {
			topo, _ := scalesim.BuiltInTopology(name)
			fmt.Fprintf(stdout, "%-16s %3d layers  %12d MACs\n",
				name, len(topo.Layers), topo.TotalMACOps())
		}
		for _, name := range scalesim.BuiltInGraphNames() {
			g, err := scalesim.BuiltInGraph(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-16s %3d nodes %3d edges  %12d work (graph)\n",
				name, len(g.Nodes), g.Edges(), g.TotalWork())
		}
		return nil
	}
	allNames := append(scalesim.BuiltInTopologyNames(), scalesim.BuiltInGraphNames()...)
	if *net == "" {
		return fmt.Errorf("pass -net (one of %s) or -list", strings.Join(allNames, ", "))
	}
	switch *format {
	case "", "csv", "graph":
	default:
		return fmt.Errorf("unknown -format %q (want csv or graph)", *format)
	}

	return cliobs.Output(stdout, *out, func(w io.Writer) error {
		// Flat built-ins keep their CSV form unless -format graph lifts them
		// into a linear-chain operator graph; native graphs emit graph JSON and
		// reject -format csv (a DAG has no flat CSV equivalent).
		g, err := topology.Workload(*net)
		switch {
		case err != nil:
			return fmt.Errorf("unknown workload %q (have %s)", *net, strings.Join(allNames, ", "))
		case g.Flat && *format != "graph":
			if *stats {
				return writeKeyStats(w, g)
			}
			return topology.WriteCSV(w, g.Topology())
		case *format == "csv":
			return fmt.Errorf("workload %q is an operator graph; -format csv applies to flat topologies only", *net)
		}
		g.Flat = false
		if *stats {
			return writeGraphStats(w, g)
		}
		return scalesim.WriteGraph(w, g)
	})
}

// writeKeyStats prints one row per distinct canonical shape key with its
// repeat count and a summary line: the layers-to-keys ratio is the fraction
// of simulations a memoizing result cache skips on this workload.
func writeKeyStats(w io.Writer, g scalesim.Graph) error {
	keys := g.KeyStats()
	fmt.Fprintf(w, "%s: %d layers, %d distinct shapes\n", g.Name, len(g.Nodes), len(keys))
	fmt.Fprintf(w, "%-28s %6s %12s  %s\n", "KEY", "COUNT", "MACS", "FIRST")
	repeated := 0
	for _, k := range keys {
		fmt.Fprintf(w, "%-28s %6d %12d  %s\n", k.Key, k.Count, k.Work, k.First)
		if k.Count > 1 {
			repeated += k.Count - 1
		}
	}
	fmt.Fprintf(w, "cacheable repeats: %d of %d layers (%.0f%%)\n",
		repeated, len(g.Nodes), 100*float64(repeated)/float64(len(g.Nodes)))
	return nil
}

// writeGraphStats is the graph analogue of writeKeyStats: node and edge
// counts, a per-operator-kind breakdown, then one row per distinct
// kind-qualified node key with its repeat count.
func writeGraphStats(w io.Writer, g scalesim.Graph) error {
	keys := g.KeyStats()
	fmt.Fprintf(w, "%s: %d nodes, %d edges, %d distinct shapes\n",
		g.Name, len(g.Nodes), g.Edges(), len(keys))
	fmt.Fprintf(w, "%-12s %6s %6s %14s\n", "OP", "NODES", "KEYS", "WORK")
	for _, k := range g.KindStats() {
		fmt.Fprintf(w, "%-12s %6d %6d %14d\n", k.Kind, k.Nodes, k.Keys, k.Work)
	}
	fmt.Fprintf(w, "%-44s %6s %12s  %s\n", "KEY", "COUNT", "WORK", "FIRST")
	repeated := 0
	for _, k := range keys {
		fmt.Fprintf(w, "%-44s %6d %12d  %s\n", k.Key, k.Count, k.Work, k.First)
		if k.Count > 1 {
			repeated += k.Count - 1
		}
	}
	fmt.Fprintf(w, "cacheable repeats: %d of %d nodes (%.0f%%)\n",
		repeated, len(g.Nodes), 100*float64(repeated)/float64(len(g.Nodes)))
	return nil
}
