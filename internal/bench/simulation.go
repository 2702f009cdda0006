package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"loom"

	"loom/internal/simulate"
)

// The simulation experiment turns ipt into the latency-flavoured number the
// paper's motivation promises: with a local/remote cost model (default
// 1:1000), how many times cheaper does each partitioner make the workload
// than Hash, and how evenly is the query-serving load spread?

// SimulationCell is one system's simulated execution on one dataset.
type SimulationCell struct {
	Dataset       string
	System        string
	RemoteHops    int
	LocalHops     int
	TotalCost     float64
	Speedup       float64 // vs Hash
	LoadImbalance float64
}

// RunSimulation partitions each dataset's BFS stream with every system and
// simulates distributed workload execution under model (zero costs take
// Simulate's defaults).
func RunSimulation(cfg Config, model simulate.CostModel) ([]SimulationCell, error) {
	cfg = cfg.withDefaults()
	var out []SimulationCell
	for _, ds := range cfg.Datasets {
		d, err := load(ds, cfg)
		if err != nil {
			return nil, err
		}
		stream, err := loom.OrderStream(d.edges, "bfs", cfg.Seed)
		if err != nil {
			return nil, err
		}
		var hashRes simulate.Result
		for _, sys := range Systems {
			p, err := d.partition(sys, stream, cfg.K, cfg.WindowSize)
			if err != nil {
				return nil, err
			}
			sim, err := p.Simulate(model.LocalCost, model.RemoteCost)
			if err != nil {
				return nil, err
			}
			res := simulate.Result{
				LocalHops: sim.LocalHops, RemoteHops: sim.RemoteHops,
				TotalCost: sim.TotalCost, MachineLoad: sim.MachineLoad,
			}
			if sys == "hash" {
				hashRes = res
			}
			out = append(out, SimulationCell{
				Dataset:       ds,
				System:        sys,
				RemoteHops:    res.RemoteHops,
				LocalHops:     res.LocalHops,
				TotalCost:     res.TotalCost,
				Speedup:       simulate.Speedup(res, hashRes),
				LoadImbalance: res.LoadImbalance(),
			})
		}
	}
	return out, nil
}

// RenderSimulation writes the simulation table.
func RenderSimulation(w io.Writer, cells []SimulationCell) {
	fmt.Fprintln(w, "Simulated distributed execution (local:remote = 1:1000, bfs streams)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tsystem\tremote hops\tlocal hops\tcost\tspeedup vs hash\tserve-load imbalance")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.0f\t%.2fx\t%.1f%%\n",
			c.Dataset, c.System, c.RemoteHops, c.LocalHops, c.TotalCost, c.Speedup, 100*c.LoadImbalance)
	}
	tw.Flush()
}
