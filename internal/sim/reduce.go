package sim

import (
	"fmt"
	"math/bits"
	"time"

	"sparker/internal/netsim"
	"sparker/internal/vclock"
)

// RSParams parameterizes a simulated reduce-scatter (Figures 14–15).
type RSParams struct {
	Cluster ClusterConfig
	// Nodes restricts the run to the first Nodes nodes (executors =
	// Nodes × ExecutorsPerNode).
	Nodes int
	// MsgBytes is the per-executor aggregator size.
	MsgBytes int64
	// Parallelism is the PDR channel count (SC only).
	Parallelism int
	// TopoAware orders ring ranks by host (SC only).
	TopoAware bool
}

func (p RSParams) validate() error {
	if p.Nodes < 1 || p.Nodes > p.Cluster.Nodes {
		return fmt.Errorf("sim: nodes %d out of range [1,%d]", p.Nodes, p.Cluster.Nodes)
	}
	if p.MsgBytes <= 0 {
		return fmt.Errorf("sim: message size must be positive")
	}
	if p.Parallelism < 1 {
		return fmt.Errorf("sim: parallelism must be >= 1")
	}
	return nil
}

// rankPlacement maps ring rank -> executor id. Topology-aware ranks
// walk executors node by node (hostname-sorted); the unsorted baseline
// reproduces a round-robin scheduler registration order, which makes
// nearly every ring hop cross nodes.
func rankPlacement(executors, nodes, perNode int, topoAware bool) []int {
	perm := make([]int, executors)
	if topoAware {
		for r := range perm {
			perm[r] = r
		}
		return perm
	}
	for r := range perm {
		node := r % nodes
		slot := r / nodes
		perm[r] = node*perNode + slot
	}
	return perm
}

// RingReduceScatter simulates the scalable communicator's PDR ring
// reduce-scatter and returns its completion time.
func RingReduceScatter(p RSParams) (time.Duration, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	c := p.Cluster
	eng := vclock.New()
	net, err := c.network(eng, c.SC, p.Nodes, c.ExecutorsPerNode)
	if err != nil {
		return 0, err
	}
	e := net.Executors()
	if e == 1 {
		return 0, nil
	}
	perm := rankPlacement(e, p.Nodes, c.ExecutorsPerNode, p.TopoAware)

	// One mailbox per (rank, channel).
	boxes := make([][]*vclock.Mailbox[int], e)
	for r := range boxes {
		boxes[r] = make([]*vclock.Mailbox[int], p.Parallelism)
		for ch := range boxes[r] {
			boxes[r][ch] = vclock.NewMailbox[int](eng)
		}
	}
	seg := p.MsgBytes / int64(p.Parallelism*e)
	if seg < 1 {
		seg = 1
	}
	// Each PDR channel is one thread doing recv+merge at RingProcRate.
	// Threads beyond the executor's core count time-share.
	procRate := c.RingProcRate
	if p.Parallelism > c.CoresPerExecutor {
		procRate *= float64(c.CoresPerExecutor) / float64(p.Parallelism)
	}
	mergeCost := time.Duration(float64(seg) / procRate * float64(time.Second))

	for r := 0; r < e; r++ {
		for ch := 0; ch < p.Parallelism; ch++ {
			r, ch := r, ch
			eng.Go(func(pr *vclock.Proc) {
				next := (r + 1) % e
				for k := 0; k < e-1; k++ {
					netsim.Send(net, pr, boxes[next][ch], perm[r], perm[next], seg, k)
					boxes[r][ch].Recv(pr)
					pr.Sleep(mergeCost)
				}
			})
		}
	}
	return eng.Run()
}

// mpiLongMessageThreshold is the per-segment size at which the modeled
// MPICH switches from its short-vector fallback to pairwise exchange.
const mpiLongMessageThreshold = 32 * 1024

// MPIReduceScatter simulates the MPI reference of Figure 15, following
// MPICH's protocol switch (Thakur, Rabenseifner & Gropp): pairwise
// exchange for long messages (bandwidth-optimal; the "ideal reference"
// the paper compares against), and for short messages the fallback the
// paper calls "a sub-optimal algorithm, leading to worse scalability":
// a binomial-tree reduce of the full vector to rank 0 plus a
// root-serialized scatterv with a rendezvous handshake per destination.
func MPIReduceScatter(p RSParams) (time.Duration, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	c := p.Cluster
	e := c.ExecutorsPerNode * p.Nodes
	if p.MsgBytes/int64(e) >= mpiLongMessageThreshold {
		return mpiPairwiseExchange(p)
	}
	return mpiReduceScatterv(p)
}

// mpiPairwiseExchange: N-1 rounds; in round k rank r sends segment
// (r+k) mod N to its owner and merges the segment received from
// (r-k+N) mod N at native speed.
func mpiPairwiseExchange(p RSParams) (time.Duration, error) {
	c := p.Cluster
	eng := vclock.New()
	net, err := c.network(eng, c.MPI, p.Nodes, c.ExecutorsPerNode)
	if err != nil {
		return 0, err
	}
	e := net.Executors()
	if e == 1 {
		return 0, nil
	}
	boxes := make([]*vclock.Mailbox[int], e)
	for r := range boxes {
		boxes[r] = vclock.NewMailbox[int](eng)
	}
	seg := p.MsgBytes / int64(e)
	mergeCost := time.Duration(float64(seg) / c.MPIProcRate * float64(time.Second))
	for r := 0; r < e; r++ {
		r := r
		eng.Go(func(pr *vclock.Proc) {
			for k := 1; k < e; k++ {
				dst := (r + k) % e
				netsim.Send(net, pr, boxes[dst], r, dst, seg, k)
				boxes[r].Recv(pr)
				pr.Sleep(mergeCost)
			}
		})
	}
	return eng.Run()
}

// mpiReduceScatterv is the short-message fallback.
func mpiReduceScatterv(p RSParams) (time.Duration, error) {
	c := p.Cluster
	eng := vclock.New()
	net, err := c.network(eng, c.MPI, p.Nodes, c.ExecutorsPerNode)
	if err != nil {
		return 0, err
	}
	e := net.Executors()
	if e == 1 {
		return 0, nil
	}
	// MPI launchers place ranks host-ordered.
	boxes := make([]*vclock.Mailbox[int], e)   // reduce traffic
	scatter := make([]*vclock.Mailbox[int], e) // scatterv traffic
	for r := range boxes {
		boxes[r] = vclock.NewMailbox[int](eng)
		scatter[r] = vclock.NewMailbox[int](eng)
	}
	mergeCost := time.Duration(float64(p.MsgBytes) / c.MPIProcRate * float64(time.Second))
	rounds := bits.Len(uint(e - 1)) // ceil(log2(e))
	// Rendezvous handshake per scatterv destination: request + ack
	// before the payload moves.
	handshake := 2 * c.MPI.Latency

	for r := 0; r < e; r++ {
		r := r
		eng.Go(func(pr *vclock.Proc) {
			// Binomial reduce to rank 0: in round j, ranks with low j
			// bits zero and bit j set send to r - 2^j.
			for j := 0; j < rounds; j++ {
				bit := 1 << j
				if r&(bit-1) != 0 {
					return // already sent in an earlier round
				}
				if r&bit != 0 {
					netsim.Send(net, pr, boxes[r-bit], r, r-bit, p.MsgBytes, j)
					break
				}
				src := r + bit
				if src < e {
					boxes[r].Recv(pr)
					pr.Sleep(mergeCost)
				}
			}
			if r != 0 {
				return
			}
			// Scatterv: root pushes each rank its segment; its NIC
			// serializes the sends.
			segBytes := p.MsgBytes / int64(e)
			for dst := 1; dst < e; dst++ {
				pr.Sleep(handshake)
				netsim.Send(net, pr, scatter[dst], 0, dst, segBytes, dst)
			}
		})
	}
	// Every non-root rank consumes its scattered segment.
	for r := 1; r < e; r++ {
		r := r
		eng.Go(func(pr *vclock.Proc) {
			scatter[r].Recv(pr)
		})
	}
	return eng.Run()
}
