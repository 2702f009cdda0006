package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"loom"

	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/signature"
)

// ---------------------------------------------------------------------------
// Table 1 — datasets
// ---------------------------------------------------------------------------

// Table1Row pairs the paper's reported sizes with this harness's generated
// sizes at the configured scale.
type Table1Row struct {
	Info      dataset.Info
	Vertices  int
	Edges     int
	LabelsGen int
}

// RunTable1 generates each catalogued dataset at harness scale and reports
// its shape next to Table 1's original numbers.
func RunTable1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table1Row
	for _, info := range dataset.Catalog() {
		scale := cfg.Scale
		if info.Name == "lubm-large" {
			scale = cfg.Scale * 4 // the paper's LUBM-4000 is ~50× LUBM-100; 4× keeps the suite fast
		}
		g, err := dataset.Generate(info.Name, scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Info:      info,
			Vertices:  g.NumVertices(),
			Edges:     g.NumEdges(),
			LabelsGen: len(g.Labels()),
		})
	}
	return rows, nil
}

// RenderTable1 writes the dataset inventory.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: graph datasets (paper sizes vs generated at harness scale)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\t|LV|\treal\tpaper |V|\tpaper |E|\tgen |V|\tgen |E|\tgen |E|/|V|\tdescription")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%d\t%d\t%d\t%d\t%.2f\t%s\n",
			r.Info.Name, r.Info.Labels, r.Info.Real, r.Info.PaperVertices, r.Info.PaperEdges,
			r.Vertices, r.Edges, float64(r.Edges)/float64(r.Vertices), r.Info.Description)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Fig. 4 — signature collision probability
// ---------------------------------------------------------------------------

// Fig4Point is one (tolerance, edges, p) sample.
type Fig4Point struct {
	Tolerance float64
	Edges     int // query graph edges; factors = 3·edges
	P         uint32
	Prob      float64
}

// RunFig4 evaluates the collision-probability model over the paper's grid:
// tolerances 5/10/20%, query sizes 8/12/16 edges (24/36/48 factors), primes
// 2..317.
func RunFig4() []Fig4Point {
	var out []Fig4Point
	for _, tol := range []float64{0.05, 0.10, 0.20} {
		for _, edges := range []int{8, 12, 16} {
			for _, pt := range signature.CollisionCurve(edges, tol, 317) {
				out = append(out, Fig4Point{Tolerance: tol, Edges: edges, P: pt.P, Prob: pt.Prob})
			}
		}
	}
	return out
}

// RenderFig4 writes the three panels at a readable sample of primes,
// highlighting the paper's operating point p = 251.
func RenderFig4(w io.Writer, pts []Fig4Point) {
	samples := map[uint32]bool{2: true, 5: true, 11: true, 23: true, 53: true, 101: true, 151: true, 199: true, 251: true, 317: true}
	byPanel := map[float64]map[int][]Fig4Point{}
	for _, p := range pts {
		if !samples[p.P] {
			continue
		}
		if byPanel[p.Tolerance] == nil {
			byPanel[p.Tolerance] = map[int][]Fig4Point{}
		}
		byPanel[p.Tolerance][p.Edges] = append(byPanel[p.Tolerance][p.Edges], p)
	}
	for _, tol := range []float64{0.05, 0.10, 0.20} {
		fmt.Fprintf(w, "Fig. 4: probability of acceptance, tolerance %.0f%% (factors = 3·|E|)\n", tol*100)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "p\t24 factors\t36 factors\t48 factors\n")
		curves := byPanel[tol]
		for i := range curves[8] {
			fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\n",
				curves[8][i].P, curves[8][i].Prob, curves[12][i].Prob, curves[16][i].Prob)
		}
		tw.Flush()
	}
	fmt.Fprintf(w, "operating point: p=251 → P(<5%% collisions) = %.6f (24 factors)\n",
		signature.CollisionProbability(8, 251, 0.05))
}

// ---------------------------------------------------------------------------
// Figs. 7 and 8 — ipt vs Hash
// ---------------------------------------------------------------------------

// RunFig7 produces the Fig. 7 grid: 8-way partitionings under the three
// stream orders.
func RunFig7(cfg Config) ([]IPTCell, error) {
	cfg = cfg.withDefaults()
	return RunIPTGrid(cfg, graph.Orders(), []int{cfg.K})
}

// RunFig8 produces the Fig. 8 grid: k ∈ {2, 8, 32} over breadth-first
// streams.
func RunFig8(cfg Config) ([]IPTCell, error) {
	cfg = cfg.withDefaults()
	return RunIPTGrid(cfg, []graph.StreamOrder{graph.OrderBFS}, []int{2, 8, 32})
}

// ---------------------------------------------------------------------------
// Fig. 9 — window size sweep
// ---------------------------------------------------------------------------

// Fig9Point is Loom's absolute ipt at one window size.
type Fig9Point struct {
	Dataset string
	Order   graph.StreamOrder
	Window  int
	IPT     float64
}

// RunFig9 sweeps Loom's window size over BFS and random streams,
// reproducing the "ipt improves steeply until ~10k then flattens" shape at
// harness scale (window sizes are scaled alongside the graphs).
func RunFig9(cfg Config, windows []int) ([]Fig9Point, error) {
	cfg = cfg.withDefaults()
	if len(windows) == 0 {
		windows = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	}
	var out []Fig9Point
	for _, ds := range cfg.Datasets {
		d, err := load(ds, cfg)
		if err != nil {
			return nil, err
		}
		for _, order := range []graph.StreamOrder{graph.OrderBFS, graph.OrderRandom} {
			stream, err := loom.OrderStream(d.edges, string(order), cfg.Seed)
			if err != nil {
				return nil, err
			}
			for _, win := range windows {
				ev, err := d.score("loom", stream, cfg.K, win)
				if err != nil {
					return nil, err
				}
				out = append(out, Fig9Point{Dataset: ds, Order: order, Window: win, IPT: ev.IPT})
			}
		}
	}
	return out, nil
}

// RenderFig9 writes the sweep, one row per (dataset, order).
func RenderFig9(w io.Writer, pts []Fig9Point) {
	fmt.Fprintln(w, "Fig. 9: Loom ipt (absolute) vs window size t")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\torder\twindow\tipt")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\n", p.Dataset, p.Order, p.Window, p.IPT)
	}
	tw.Flush()
}
