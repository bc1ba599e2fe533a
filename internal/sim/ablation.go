package sim

import (
	"time"

	"sparker/internal/vclock"
)

// Ablations isolate the design choices stacked inside split
// aggregation, checking the paper's §5.2.3 claim that "although
// in-memory merge contributes to split aggregation's improvement, most
// of the improvement comes from the scalable reduction".

// SplitNoIMMTime simulates split aggregation with in-memory merge
// disabled: every task result is serialized as in vanilla Spark; the
// SpawnRDD task then loads and merges its executor's local results
// before splitting and ring-reducing. Isolates the scalable-reduction
// contribution.
func SplitNoIMMTime(p AggParams) (time.Duration, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	c := p.Cluster
	m := p.MsgBytes
	par := p.Parallelism
	if par < 1 {
		par = 4
	}
	e := p.Nodes * c.ExecutorsPerNode
	cores := c.CoresPerExecutor

	// Stage 1: every core serializes its task result (parallel).
	total := seconds(m, c.SerRate) + stageCost(c, e*cores)
	// SpawnRDD: deserialize + merge the executor's cores-many local
	// results serially, then split.
	total += time.Duration(cores) * (seconds(m, c.DeserRate) + seconds(m, c.MergeRate))
	total += seconds(m, c.CopyRate)
	ring, err := RingReduceScatter(RSParams{
		Cluster: c, Nodes: p.Nodes, MsgBytes: m,
		Parallelism: par, TopoAware: p.TopoAware,
	})
	if err != nil {
		return 0, err
	}
	total += ring
	gather, err := splitGatherTime(p, e)
	if err != nil {
		return 0, err
	}
	return total + gather + stageCost(c, e), nil
}

// splitGatherTime is the driver gather + concat phase shared by the
// split variants.
func splitGatherTime(p AggParams, e int) (time.Duration, error) {
	c := p.Cluster
	eng := vclock.New()
	net, err := c.network(eng, c.SC, p.Nodes, c.ExecutorsPerNode)
	if err != nil {
		return 0, err
	}
	seg := p.MsgBytes / int64(e)
	g := vclock.NewGroup(eng)
	for i := 0; i < e; i++ {
		i := i
		g.Go(func(pr *vclock.Proc) {
			net.Transfer(pr, i, 0-1, seg) // netsim.Driver == -1
		})
	}
	eng.Go(func(pr *vclock.Proc) {
		g.Wait(pr)
		pr.Sleep(seconds(p.MsgBytes, c.DeserRate) +
			seconds(p.MsgBytes, c.CopyRate) +
			time.Duration(e)*c.TaskOverhead)
	})
	return eng.Run()
}

// SplitAllReduceTime simulates the allreduce extension: IMM + ring
// reduce-scatter + ring allgather, with only one executor returning a
// copy to the driver — no serial driver merge at all.
func SplitAllReduceTime(p AggParams) (time.Duration, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	c := p.Cluster
	par := p.Parallelism
	if par < 1 {
		par = 4
	}
	e := p.Nodes * c.ExecutorsPerNode
	total := immMergeTime(c)(p.MsgBytes) + stageCost(c, e*c.CoresPerExecutor)
	total += seconds(p.MsgBytes, c.CopyRate)
	// Reduce-scatter, then allgather: the allgather moves the same
	// volume over the same ring, so its simulated schedule matches the
	// reduce-scatter's with merge replaced by a memcpy-speed store.
	rs, err := RingReduceScatter(RSParams{
		Cluster: c, Nodes: p.Nodes, MsgBytes: p.MsgBytes,
		Parallelism: par, TopoAware: p.TopoAware,
	})
	if err != nil {
		return 0, err
	}
	agCluster := c
	agCluster.RingProcRate = c.CopyRate // allgather only copies
	ag, err := RingReduceScatter(RSParams{
		Cluster: agCluster, Nodes: p.Nodes, MsgBytes: p.MsgBytes,
		Parallelism: par, TopoAware: p.TopoAware,
	})
	if err != nil {
		return 0, err
	}
	total += rs + ag
	// One executor ships the result to the driver.
	eng := vclock.New()
	net, err := c.network(eng, c.SC, p.Nodes, c.ExecutorsPerNode)
	if err != nil {
		return 0, err
	}
	eng.Go(func(pr *vclock.Proc) {
		net.Transfer(pr, 0, -1, p.MsgBytes)
		pr.Sleep(seconds(p.MsgBytes, c.DeserRate))
	})
	d, err := eng.Run()
	if err != nil {
		return 0, err
	}
	return total + d + stageCost(c, e), nil
}

// SegmentReductionAlgorithm compares reduction algorithms over the
// same splittable segments: the interface admits any of them (§7),
// and the ablation shows why Sparker picked the ring.
type SegmentReductionAlgorithm string

// Algorithms compared by ReduceAlgorithmTime.
const (
	AlgoRing     SegmentReductionAlgorithm = "ring"
	AlgoPairwise SegmentReductionAlgorithm = "pairwise"
	AlgoHalving  SegmentReductionAlgorithm = "reduce+scatterv"
)

// ReduceAlgorithmTime times one segment-reduction algorithm on the SC
// transport (same latency/bandwidth, same JVM processing rate), so the
// comparison isolates the algorithm.
func ReduceAlgorithmTime(algo SegmentReductionAlgorithm, p RSParams) (time.Duration, error) {
	switch algo {
	case AlgoRing:
		return RingReduceScatter(p)
	case AlgoPairwise:
		cl := p.Cluster
		cl.MPI = cl.SC // same transport, different algorithm
		cl.MPIProcRate = cl.RingProcRate
		p.Cluster = cl
		return mpiPairwiseExchange(p)
	case AlgoHalving:
		cl := p.Cluster
		cl.MPI = cl.SC
		cl.MPIProcRate = cl.RingProcRate
		p.Cluster = cl
		return mpiReduceScatterv(p)
	default:
		return 0, errUnknownAlgo(string(algo))
	}
}

type errUnknownAlgo string

func (e errUnknownAlgo) Error() string {
	return "sim: unknown reduction algorithm " + string(e)
}
