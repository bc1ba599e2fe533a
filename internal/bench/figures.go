package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"sparker/internal/data"
	"sparker/internal/sim"
)

const mb = 1024 * 1024

func fsec(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }
func fms(d time.Duration) string  { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }
func fus(d time.Duration) string  { return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1000) }
func fx(x float64) string         { return fmt.Sprintf("%.2f×", x) }
func fmbs(bytesPerSec float64) string {
	return fmt.Sprintf("%.1f MB/s", bytesPerSec/mb)
}

// fdur picks a readable unit for durations spanning µs to seconds.
func fdur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fus(d)
	case d < time.Second:
		return fms(d)
	default:
		return fsec(d)
	}
}

// Table1 renders the cluster configurations.
func Table1() (*Report, error) {
	r := &Report{
		Title:  "Table 1: Configuration of the two clusters used for experiments",
		Header: []string{"Configuration", "BIC", "AWS"},
	}
	b, a := sim.BIC(), sim.AWS()
	r.AddRow("Number of nodes", fmt.Sprint(b.Nodes), fmt.Sprint(a.Nodes))
	r.AddRow("Executors per node", fmt.Sprint(b.ExecutorsPerNode), fmt.Sprint(a.ExecutorsPerNode))
	r.AddRow("Executor cores", fmt.Sprint(b.CoresPerExecutor), fmt.Sprint(a.CoresPerExecutor))
	r.AddRow("Total executors", fmt.Sprint(b.Executors()), fmt.Sprint(a.Executors()))
	r.AddRow("Total cores", fmt.Sprint(b.TotalCores()), fmt.Sprint(a.TotalCores()))
	r.AddRow("Network (SC lat/bw)", fus(b.SC.Latency)+" / "+fmbs(b.SC.NICBW), fus(a.SC.Latency)+" / "+fmbs(a.SC.NICBW))
	r.AddRow("MPI lat/bw", fus(b.MPI.Latency)+" / "+fmbs(b.MPI.NICBW), fus(a.MPI.Latency)+" / "+fmbs(a.MPI.NICBW))
	r.AddNote("paper: BIC = 8 × 56-core nodes, 100Gbps IPoIB; AWS = 10 × m5d.24xlarge, 25Gbps Ethernet")
	return r, nil
}

// Table2 renders the dataset profiles.
func Table2() (*Report, error) {
	r := &Report{
		Title:  "Table 2: Real-world datasets (synthetic shape-preserving stand-ins)",
		Header: []string{"Dataset", "Samples/Docs", "Features/Vocab", "NNZ/sample", "Task", "Aggregator (K=100)"},
	}
	for _, p := range data.Profiles {
		r.AddRow(p.Name,
			fmt.Sprint(p.Samples),
			fmt.Sprint(p.Features),
			fmt.Sprint(p.NNZPerSample),
			string(p.Task),
			fmt.Sprintf("%.1f MB", float64(p.AggregatorBytes(100))/mb))
	}
	r.AddNote("aggregator size is what the reduction moves per iteration — why kdd10/kdd12/nytimes are reduction-bound")
	return r, nil
}

// Table3 renders the model parameters.
func Table3() (*Report, error) {
	r := &Report{
		Title:  "Table 3: MLlib models used in the experiments",
		Header: []string{"Name", "Parameter", "Task"},
	}
	r.AddRow("Logistic Regression", "regParam=0, elasticNetParam=0", "classification")
	r.AddRow("SVM", "miniBatchFrac=1.0, regParam=0.01", "classification")
	r.AddRow("LDA", "K=100", "topic model")
	return r, nil
}

// Fig1 renders the 8-node vs 1-node MLlib speedups on BIC.
func Fig1() (*Report, error) {
	r := &Report{
		Title:  "Figure 1: 8-node speedup over 1-node, MLlib (tree aggregation) on BIC",
		Header: []string{"Workload", "1-node", "8-node", "Speedup"},
	}
	product := 1.0
	for _, w := range sim.Workloads() {
		one, err := sim.RunWorkload(sim.RunParams{Cluster: sim.BIC(), Workload: w, Strategy: sim.AggTree, Nodes: 1})
		if err != nil {
			return nil, err
		}
		eight, err := sim.RunWorkload(sim.RunParams{Cluster: sim.BIC(), Workload: w, Strategy: sim.AggTree, Nodes: 8})
		if err != nil {
			return nil, err
		}
		sp := one.Total().Seconds() / eight.Total().Seconds()
		product *= sp
		r.AddRow(w.Name, fsec(one.Total()), fsec(eight.Total()), fx(sp))
	}
	r.AddNote("geomean speedup %.2f× — paper: average 1.25×, best LDA-N 2.49×, worst LR-K 0.73×", math.Pow(product, 1.0/9))
	return r, nil
}

// Fig2 renders the end-to-end decomposition per workload.
func Fig2() (*Report, error) {
	r := &Report{
		Title:  "Figure 2: time decomposition on 8-node BIC, MLlib (tree aggregation)",
		Header: []string{"Workload", "Aggregation", "Non-agg", "Driver", "Agg %"},
	}
	geoSum := 0.0
	for _, w := range sim.Workloads() {
		ph, err := sim.RunWorkload(sim.RunParams{Cluster: sim.BIC(), Workload: w, Strategy: sim.AggTree, Nodes: 8})
		if err != nil {
			return nil, err
		}
		agg := ph.AggCompute + ph.AggReduce
		frac := float64(agg) / float64(ph.Total())
		geoSum += math.Log(frac)
		r.AddRow(w.Name, fsec(agg), fsec(ph.NonAgg), fsec(ph.Driver), fmt.Sprintf("%.1f%%", 100*frac))
	}
	r.AddNote("geomean aggregation share %.1f%% — paper: 67.69%% geomean", 100*math.Exp(geoSum/9))
	return r, nil
}

// strongScaling renders a Figure-3/4-style decomposition series.
func strongScaling(title string, cluster sim.ClusterConfig, configs []sim.RunParams, paperNote string) (*Report, error) {
	r := &Report{
		Title:  title,
		Header: []string{"Cores", "Agg-compute", "Agg-reduce", "Non-agg", "Driver", "Total"},
	}
	for _, rp := range configs {
		ph, err := sim.RunWorkload(rp)
		if err != nil {
			return nil, err
		}
		cores := rp.Nodes * rp.ExecutorsPerNode * rp.CoresPerExecutor
		r.AddRow(fmt.Sprint(cores), fsec(ph.AggCompute), fsec(ph.AggReduce), fsec(ph.NonAgg), fsec(ph.Driver), fsec(ph.Total()))
	}
	r.AddNote(paperNote)
	return r, nil
}

// Fig3 renders LDA-N strong scaling on BIC under vanilla Spark.
func Fig3() (*Report, error) {
	w, err := sim.WorkloadByName("LDA-N")
	if err != nil {
		return nil, err
	}
	c := sim.BIC()
	var cfgs []sim.RunParams
	for _, nodes := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, sim.RunParams{Cluster: c, Workload: w, Strategy: sim.AggTree,
			Nodes: nodes, ExecutorsPerNode: c.ExecutorsPerNode, CoresPerExecutor: c.CoresPerExecutor})
	}
	return strongScaling("Figure 3: LDA-N strong scaling on BIC (Spark, 40 iterations)",
		c, cfgs, "paper: compute 1152.38s → 342.43s (4.47×); reduce 111.05s → 187.48s (grows 1.69×)")
}

// Fig4 renders LDA-N strong scaling on AWS under vanilla Spark.
func Fig4() (*Report, error) {
	w, err := sim.WorkloadByName("LDA-N")
	if err != nil {
		return nil, err
	}
	c := sim.AWS()
	var cfgs []sim.RunParams
	for _, g := range awsScalingConfigs() {
		cfgs = append(cfgs, sim.RunParams{Cluster: c, Workload: w, Strategy: sim.AggTree,
			Nodes: g.nodes, ExecutorsPerNode: g.epn, CoresPerExecutor: g.cpe})
	}
	return strongScaling("Figure 4: LDA-N strong scaling on AWS (Spark, 15 iterations)",
		c, cfgs, "paper: compute 272.36s → 58.39s (4.66×); reduce 26.38s → 111.23s (4.22×), reaching 44.55%% of end-to-end")
}

type awsCfg struct{ nodes, epn, cpe int }

// awsScalingConfigs are the Figure-4/18 core counts: 4..960.
func awsScalingConfigs() []awsCfg {
	return []awsCfg{
		{1, 1, 4}, {1, 2, 4}, {1, 6, 4}, {1, 12, 8},
		{2, 12, 8}, {5, 12, 8}, {10, 12, 8},
	}
}

// Fig12 renders point-to-point latency per transport.
func Fig12() (*Report, error) { return fig12For(sim.BIC()) }

// Fig12AWS is Fig12 on the AWS calibration ("the result on AWS is
// similar", §5.2).
func Fig12AWS() (*Report, error) { return fig12For(sim.AWS()) }

func fig12For(c sim.ClusterConfig) (*Report, error) {
	r := &Report{
		Title:  "Figure 12: point-to-point latency on " + c.Name,
		Header: []string{"Transport", "Latency", "vs MPI"},
	}
	mpi, err := sim.P2PLatency(c, c.MPI)
	if err != nil {
		return nil, err
	}
	for _, tr := range []sim.Transport{c.BM, c.SC, c.MPI} {
		lat, err := sim.P2PLatency(c, tr)
		if err != nil {
			return nil, err
		}
		r.AddRow(tr.Name, fus(lat), fx(float64(lat)/float64(mpi)))
	}
	r.AddNote("paper: BM 3861.25µs (242.24× MPI), SC 72.73µs (4.56× MPI), MPI 15.94µs")
	return r, nil
}

// Fig13 renders point-to-point throughput vs message size.
func Fig13() (*Report, error) { return fig13For(sim.BIC()) }

// Fig13AWS is Fig13 on the AWS calibration.
func Fig13AWS() (*Report, error) { return fig13For(sim.AWS()) }

func fig13For(c sim.ClusterConfig) (*Report, error) {
	r := &Report{
		Title:  "Figure 13: point-to-point throughput on " + c.Name + " (SC parallelism 1/2/4 vs MPI)",
		Header: []string{"Message", "SC p=1", "SC p=2", "SC p=4", "MPI"},
	}
	for _, m := range []int64{64 * 1024, 1 * mb, 8 * mb, 64 * mb, 256 * mb} {
		row := []string{fmtBytes(m)}
		for _, p := range []int{1, 2, 4} {
			tp, err := sim.P2PThroughput(c, c.SC, m, p)
			if err != nil {
				return nil, err
			}
			row = append(row, fmbs(tp))
		}
		tp, err := sim.P2PThroughput(c, c.MPI, m, 1)
		if err != nil {
			return nil, err
		}
		row = append(row, fmbs(tp))
		r.AddRow(row...)
	}
	r.AddNote("paper: MPI max 1185.43 MB/s; SC reaches 1151.80 MB/s (97.1%% of line rate) with enough parallelism")
	return r, nil
}

// Fig14 renders reduce-scatter vs parallelism and topology-awareness.
func Fig14() (*Report, error) {
	r := &Report{
		Title:  "Figure 14: reduce-scatter, 48 executors, 256MB, varying parallelism",
		Header: []string{"Parallelism", "Topology-aware", "Unsorted"},
	}
	c := sim.BIC()
	for _, p := range []int{1, 2, 4, 8} {
		topo, err := sim.RingReduceScatter(sim.RSParams{Cluster: c, Nodes: 8, MsgBytes: 256 * mb, Parallelism: p, TopoAware: true})
		if err != nil {
			return nil, err
		}
		unsorted, err := sim.RingReduceScatter(sim.RSParams{Cluster: c, Nodes: 8, MsgBytes: 256 * mb, Parallelism: p, TopoAware: false})
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprint(p), fsec(topo), fsec(unsorted))
	}
	r.AddNote("paper: parallelism 1→8 improves 3.04s → 0.99s (3.06×); topology-awareness 2.77s → 0.99s (2.76×)")
	return r, nil
}

// Fig15 renders reduce-scatter scalability vs MPI.
func Fig15() (*Report, error) {
	r := &Report{
		Title:  "Figure 15: reduce-scatter scalability (6→48 executors), SC vs MPI",
		Header: []string{"Executors", "SC 256KB", "MPI 256KB", "SC 256MB", "MPI 256MB"},
	}
	c := sim.BIC()
	for _, nodes := range []int{1, 2, 4, 8} {
		row := []string{fmt.Sprint(nodes * c.ExecutorsPerNode)}
		for _, m := range []int64{256 * 1024, 256 * mb} {
			sc, err := sim.RingReduceScatter(sim.RSParams{Cluster: c, Nodes: nodes, MsgBytes: m, Parallelism: 4, TopoAware: true})
			if err != nil {
				return nil, err
			}
			mpi, err := sim.MPIReduceScatter(sim.RSParams{Cluster: c, Nodes: nodes, MsgBytes: m, Parallelism: 1})
			if err != nil {
				return nil, err
			}
			row = append(row, fms(sc), fms(mpi))
		}
		// Reorder: SC small, MPI small, SC big, MPI big.
		r.AddRow(row[0], row[1], row[2], row[3], row[4])
	}
	r.AddNote("paper: SC 256KB 1.51ms → 7.98ms (5.30×); SC 256MB 784.13ms → 993.35ms (1.27×); SC scales better than MPI")
	return r, nil
}

// Fig16 renders the aggregation strategy comparison.
func Fig16() (*Report, error) { return fig16For(sim.BIC(), []int{1, 2, 4, 8}) }

// Fig16AWS is Fig16 on the AWS calibration.
func Fig16AWS() (*Report, error) { return fig16For(sim.AWS(), []int{1, 2, 5, 10}) }

func fig16For(c sim.ClusterConfig, nodeCounts []int) (*Report, error) {
	r := &Report{
		Title:  "Figure 16: tree vs tree+IMM vs split aggregation on " + c.Name,
		Header: []string{"Message", "Nodes", "Tree", "Tree+IMM", "Split", "Split speedup"},
	}
	for _, m := range []int64{1024, 8 * mb, 256 * mb} {
		for _, nodes := range nodeCounts {
			var ds [3]time.Duration
			for i, s := range []sim.AggStrategy{sim.AggTree, sim.AggTreeIMM, sim.AggSplit} {
				d, err := sim.AggregateTime(s, sim.AggParams{Cluster: c, Nodes: nodes, MsgBytes: m, Parallelism: 4, TopoAware: true})
				if err != nil {
					return nil, err
				}
				ds[i] = d
			}
			r.AddRow(fmtBytes(m), fmt.Sprint(nodes), fsec(ds[0]), fsec(ds[1]), fsec(ds[2]),
				fx(float64(ds[0])/float64(ds[2])))
		}
	}
	r.AddNote("paper at 8 nodes: 8MB split speedup 1.91×; 256MB split 6.48×, IMM 1.46×; split 8-node time only 1.12× its 1-node time")
	return r, nil
}

// Fig17 renders the end-to-end Sparker vs Spark speedups.
func Fig17() (*Report, error) {
	r := &Report{
		Title:  "Figure 17: end-to-end speedup of Sparker (split) over Spark (tree)",
		Header: []string{"Workload", "BIC Spark", "BIC Sparker", "BIC speedup", "AWS Spark", "AWS Sparker", "AWS speedup"},
	}
	prod := map[string]float64{"BIC": 1, "AWS": 1}
	rows := map[string][]string{}
	var order []string
	for _, cl := range []sim.ClusterConfig{sim.BIC(), sim.AWS()} {
		for _, w := range sim.Workloads() {
			spark, err := sim.RunWorkload(sim.RunParams{Cluster: cl, Workload: w, Strategy: sim.AggTree})
			if err != nil {
				return nil, err
			}
			sparker, err := sim.RunWorkload(sim.RunParams{Cluster: cl, Workload: w, Strategy: sim.AggSplit})
			if err != nil {
				return nil, err
			}
			sp := spark.Total().Seconds() / sparker.Total().Seconds()
			prod[cl.Name] *= sp
			if cl.Name == "BIC" {
				order = append(order, w.Name)
				rows[w.Name] = []string{w.Name, fsec(spark.Total()), fsec(sparker.Total()), fx(sp)}
			} else {
				rows[w.Name] = append(rows[w.Name], fsec(spark.Total()), fsec(sparker.Total()), fx(sp))
			}
		}
	}
	for _, name := range order {
		r.AddRow(rows[name]...)
	}
	r.AddNote("geomean: BIC %.2f×, AWS %.2f× — paper: BIC 1.60× (max SVM-K 2.62×), AWS 1.81× (max SVM-K 3.69×)",
		math.Pow(prod["BIC"], 1.0/9), math.Pow(prod["AWS"], 1.0/9))
	return r, nil
}

// Fig18 renders LDA-N strong scaling under both engines on AWS.
func Fig18() (*Report, error) {
	w, err := sim.WorkloadByName("LDA-N")
	if err != nil {
		return nil, err
	}
	c := sim.AWS()
	r := &Report{
		Title:  "Figure 18: LDA-N strong scaling on AWS, Spark vs Sparker",
		Header: []string{"Cores", "Spark comp", "Spark reduce", "Sparker comp", "Sparker reduce", "Reduce speedup"},
	}
	for _, g := range awsScalingConfigs() {
		spark, err := sim.RunWorkload(sim.RunParams{Cluster: c, Workload: w, Strategy: sim.AggTree,
			Nodes: g.nodes, ExecutorsPerNode: g.epn, CoresPerExecutor: g.cpe})
		if err != nil {
			return nil, err
		}
		sparker, err := sim.RunWorkload(sim.RunParams{Cluster: c, Workload: w, Strategy: sim.AggSplit,
			Nodes: g.nodes, ExecutorsPerNode: g.epn, CoresPerExecutor: g.cpe})
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprint(g.nodes*g.epn*g.cpe),
			fsec(spark.AggCompute), fsec(spark.AggReduce),
			fsec(sparker.AggCompute), fsec(sparker.AggReduce),
			fx(spark.AggReduce.Seconds()/sparker.AggReduce.Seconds()))
	}
	r.AddNote("paper: at 8 cores reduce 26.36s vs 6.29s (4.19×); at 960 cores 111.26s vs 15.41s (7.22×); Sparker compute is lower (IMM removes serialization); driver becomes the new bottleneck")
	return r, nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= mb:
		return fmt.Sprintf("%dMB", n/mb)
	case n >= 1024:
		return fmt.Sprintf("%dKB", n/1024)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// registry is every report this package renders: the one list All,
// ByID, IDs and `sparkerbench -list` derive from. all marks the
// reports of a bare `sparkerbench` run (the paper's own tables and
// figures plus the ablations); the AWS variants are by id only.
var registry = []struct {
	id  string
	run func() (*Report, error)
	all bool
}{
	{"table1", Table1, true}, {"table2", Table2, true}, {"table3", Table3, true},
	{"fig1", Fig1, true}, {"fig2", Fig2, true}, {"fig3", Fig3, true}, {"fig4", Fig4, true},
	{"fig12", Fig12, true}, {"fig13", Fig13, true}, {"fig14", Fig14, true},
	{"fig15", Fig15, true}, {"fig16", Fig16, true}, {"fig17", Fig17, true}, {"fig18", Fig18, true},
	{"fig12-aws", Fig12AWS, false}, {"fig13-aws", Fig13AWS, false}, {"fig16-aws", Fig16AWS, false},
	{"ablation-imm", AblationIMM, true}, {"ablation-algos", AblationAlgorithms, true},
	{"ablation-allreduce", AblationAllReduce, true},
}

// IDs lists every report id ByID accepts, in registry order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// All returns every report of a full run, in paper order.
func All() ([]*Report, error) {
	var out []*Report
	for _, e := range registry {
		if !e.all {
			continue
		}
		r, err := e.run()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ByID returns the report for a table ("table1"), figure ("fig16") or
// ablation ("ablation-imm").
func ByID(id string) (*Report, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run()
		}
	}
	return nil, fmt.Errorf("bench: unknown report %q (have: %s)", id, strings.Join(IDs(), " "))
}
