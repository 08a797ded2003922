// Comparison demo: the paper's core argument, reproduced end to end.
// Hyper-deBruijn networks combine hypercubes with de Bruijn graphs but
// lose regularity and fault tolerance; the hyper-butterfly keeps the
// same degree budget (m+4) while being a regular Cayley graph with
// connectivity equal to its degree. This example measures both on live
// graphs and then exercises them under identical traffic.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hyperdebruijn"
	"repro/internal/noc"
)

func main() {
	hb := core.MustNew(2, 3)          // 96 nodes, degree 6
	hd := hyperdebruijn.MustNew(2, 5) // 128 nodes, degrees 4..6

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "property\tHB(2,3)\tHD(2,5)")
	hbD := hb.Dense()
	hdD := graph.Build(hd)
	hbSt := graph.Degrees(hbD)
	hdSt := graph.Degrees(hdD)
	fmt.Fprintf(w, "nodes\t%d\t%d\n", hbD.Order(), hdD.Order())
	fmt.Fprintf(w, "degree\t%d (regular)\t%d..%d (irregular)\n", hbSt.Max, hdSt.Min, hdSt.Max)
	ecc, _ := graph.Eccentricity(hb, hb.Identity())
	fmt.Fprintf(w, "diameter\t%d\t%d\n", ecc, graph.Diameter(hdD, 0))
	fmt.Fprintf(w, "connectivity\t%d = degree (maximal)\t%d < max degree\n",
		graph.ConnectivityVertexTransitive(hbD, 0), graph.Connectivity(hdD, 0))
	w.Flush()

	// Same offered load on both networks: single-flit packets on the
	// noc engine, each network on its own routing algorithm.
	fmt.Println("\nuniform traffic, rate 0.05, 2000 cycles:")
	w = tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "network\tdelivered\tavg latency\tmax latency")
	for _, e := range []struct {
		name  string
		g     graph.Graph
		route func(u, v int, buf []int) []int
	}{
		{"HB(2,3)", hb, hb.AppendRoute},
		{"HD(2,5)", hd, noc.AppendPath(hd.Route)},
	} {
		eng, err := noc.New(e.g, noc.Config{
			Cycles: 2000, Rate: 0.05, PacketLen: 1, BufDepth: 1, VCs: 1,
			Pattern: noc.Uniform, Seed: 7, MaxRoute: hd.RouteLengthBound(), // >= HB's diameter 6
			Route: e.route, Policy: noc.SingleVC,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%.2f\t%d\n", e.name, res.Delivered, res.Injected, res.AvgLatency, res.MaxLatency)
	}
	w.Flush()
}
