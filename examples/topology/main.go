// Topology: run graph-building Yarrp6 campaigns from two vantage
// points, union them into one interface-level topology graph, collapse
// aliased middlebox prefixes into router nodes, and emit the union as
// Graphviz DOT on stdout:
//
//	go run ./examples/topology > topology.dot && dot -Tsvg topology.dot -o topology.svg
//
// Progress and summary metrics go to stderr so the DOT stream stays
// clean.
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"

	"beholder"
)

func main() {
	in := beholder.NewSmallInternet(42)
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "topology: %d targets across %d ASes\n", len(targets), in.NumASes())

	// One campaign per vantage: its graph is rebuilt from the stored
	// traces when the run ends, as the stateless prober keeps no
	// per-target state while probes fly.
	var graphs []*beholder.Result
	for _, name := range []string{"vantage-west", "vantage-east"} {
		v := in.NewVantage(name)
		res, err := v.RunYarrp6(targets, beholder.YarrpOptions{
			Rate: 4000, MaxTTL: 16, Fill: true, Key: 7, Graph: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		g := res.Graph()
		fmt.Fprintf(os.Stderr, "topology: %-13s %5d probes -> %4d nodes, %4d edges\n",
			name, res.ProbesSent, g.NumNodes(), g.NumEdges())
		graphs = append(graphs, res)
	}

	// Cross-vantage union: the second vantage's marginal topology is
	// the paper's argument for probing from more than one place.
	union := beholder.UnionGraphs(graphs[0].Graph(), graphs[1].Graph())
	fmt.Fprintf(os.Stderr, "topology: union         %4d nodes, %4d edges (vantages: %v)\n",
		union.NumNodes(), union.NumEdges(), union.Vantages())

	// Router collapse: detect aliased /64s (middleboxes answering for
	// whole prefixes) and fold their interfaces into single routers.
	aliases := in.NewVantage("apd").DetectAliases(beholder.AliasCandidates(targets), beholder.AliasOptions{Rate: 4000})
	routers := beholder.CollapseGraph(union, aliases)
	fmt.Fprintf(os.Stderr, "topology: collapsed     %4d routers (%d interfaces folded, %d intra-router links dropped)\n",
		routers.NumRouters(), routers.Folded, routers.IntraRouter)

	w := bufio.NewWriter(os.Stdout)
	if err := union.WriteDOT(w, in.Universe().Table()); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
