// Package comm implements Sparker's scalable communicator: direct
// inter-executor messaging arranged as a parallel directed ring (PDR).
//
// Each executor owns an Endpoint with a unique rank in [0, N). Executor
// i can send to its next neighbor ((i+1) mod N) and receive from its
// previous neighbor ((i-1+N) mod N). P parallel channels (independent
// connections) are established between each pair of ring neighbors so
// that P threads can drive reduce-scatter concurrently and saturate the
// link — the paper's Figure 10. General point-to-point send/recv is
// also provided for the latency/throughput micro-benchmarks (Figures
// 12–13) and for the binomial tree reduce.
package comm

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"sparker/internal/metrics"
	"sparker/internal/transport"
)

// Endpoint is one communicator participant.
type Endpoint struct {
	group string
	rank  int
	size  int
	net   transport.Network
	lis   transport.Listener

	mu         sync.Mutex
	cond       *sync.Cond
	inbound    map[connKey]transport.Conn  // accepted, keyed by (src, channel)
	dialed     map[connKey]transport.Conn  // dialed, keyed by (dst, channel)
	senders    map[connKey]*sender         // persistent sender goroutines
	receivers  map[connKey]*receiver       // cancellable-receive state
	handshakes map[transport.Conn]struct{} // accepted, header not yet read
	closed     bool

	acceptDone chan struct{}
	closeCh    chan struct{} // closed by Close; unblocks receiver pumps
	sendWG     sync.WaitGroup
	recvWG     sync.WaitGroup

	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
	msgsSent      atomic.Int64
	msgsReceived  atomic.Int64

	// queueGauge, when set, tracks the total mailbox depth across this
	// endpoint's senders (messages enqueued, not yet written). Atomic so
	// SetMetrics is safe against concurrent traffic; nil means
	// uninstrumented and costs one pointer load per enqueue.
	queueGauge atomic.Pointer[metrics.Gauge]
}

// SetMetrics wires the endpoint's instruments into reg (the owning
// executor's registry): the sender queue-depth gauge. Safe to call at
// any time; nil reg disables.
func (e *Endpoint) SetMetrics(reg *metrics.Registry) {
	e.queueGauge.Store(reg.Gauge(metrics.GaugeSendQueue))
}

// Stats is a snapshot of an endpoint's traffic counters.
type Stats struct {
	BytesSent, BytesReceived int64
	MsgsSent, MsgsReceived   int64
}

// Stats returns the endpoint's cumulative traffic counters — the
// observable for bandwidth-optimality checks (a ring reduce-scatter
// moves exactly (N-1)/N of the aggregator per rank).
func (e *Endpoint) Stats() Stats {
	return Stats{
		BytesSent:     e.bytesSent.Load(),
		BytesReceived: e.bytesReceived.Load(),
		MsgsSent:      e.msgsSent.Load(),
		MsgsReceived:  e.msgsReceived.Load(),
	}
}

// OpenConns reports the endpoint's live connection counts (accepted
// inbound, dialed outbound) — the wiring view /debug/sparker/topology
// renders next to the traffic counters.
func (e *Endpoint) OpenConns() (inbound, outbound int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.inbound), len(e.dialed)
}

type connKey struct {
	peer    int
	channel int
}

// addrOf is the listening address of rank r in group g.
func addrOf(g string, r int) transport.Addr {
	return transport.Addr(fmt.Sprintf("comm/%s/%d", g, r))
}

// NewEndpoint creates the endpoint for rank within a size-member group
// and starts listening. All members must share the same net and group
// name. Ranks must be unique.
func NewEndpoint(net transport.Network, group string, rank, size int) (*Endpoint, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: invalid rank %d of %d", rank, size)
	}
	lis, err := net.Listen(addrOf(group, rank))
	if err != nil {
		return nil, err
	}
	e := &Endpoint{
		group:      group,
		rank:       rank,
		size:       size,
		net:        net,
		lis:        lis,
		inbound:    map[connKey]transport.Conn{},
		dialed:     map[connKey]transport.Conn{},
		senders:    map[connKey]*sender{},
		receivers:  map[connKey]*receiver{},
		handshakes: map[transport.Conn]struct{}{},
		acceptDone: make(chan struct{}),
		closeCh:    make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	go e.acceptLoop()
	return e, nil
}

// Rank returns this endpoint's ring position.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the number of group members.
func (e *Endpoint) Size() int { return e.size }

// Next returns the rank of the next ring neighbor.
func (e *Endpoint) Next() int { return (e.rank + 1) % e.size }

// Prev returns the rank of the previous ring neighbor.
func (e *Endpoint) Prev() int { return (e.rank - 1 + e.size) % e.size }

func (e *Endpoint) acceptLoop() {
	defer close(e.acceptDone)
	for {
		c, err := e.lis.Accept()
		if err != nil {
			return
		}
		go func(c transport.Conn) {
			// Track the conn until its header arrives so Close can sever
			// a handshake that never completes (a peer that dials and then
			// dies would otherwise pin this goroutine in Recv forever).
			e.mu.Lock()
			if e.closed {
				e.mu.Unlock()
				c.Close()
				return
			}
			e.handshakes[c] = struct{}{}
			e.mu.Unlock()
			hdr, err := c.Recv()
			e.mu.Lock()
			delete(e.handshakes, c)
			if err != nil || len(hdr) < 8 || e.closed {
				e.mu.Unlock()
				c.Close()
				return
			}
			src := int(int32(binary.LittleEndian.Uint32(hdr)))
			ch := int(int32(binary.LittleEndian.Uint32(hdr[4:])))
			e.inbound[connKey{src, ch}] = c
			e.cond.Broadcast()
			e.mu.Unlock()
		}(c)
	}
}

// dial returns (establishing if needed) the outbound connection to peer
// on the given channel.
func (e *Endpoint) dial(peer, channel int) (transport.Conn, error) {
	key := connKey{peer, channel}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if c, ok := e.dialed[key]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	c, err := e.net.Dial(addrOf(e.group, peer))
	if err != nil {
		return nil, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(int32(e.rank)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(channel)))
	if err := c.Send(hdr[:]); err != nil {
		c.Close()
		return nil, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		c.Close()
		return nil, transport.ErrClosed
	}
	if prev, ok := e.dialed[key]; ok {
		// Lost a benign race; keep the first connection.
		c.Close()
		return prev, nil
	}
	e.dialed[key] = c
	return c, nil
}

// senderFor returns (lazily creating) the persistent sender goroutine
// for (peer, channel).
func (e *Endpoint) senderFor(peer, channel int) (*sender, error) {
	key := connKey{peer, channel}
	e.mu.Lock()
	if s, ok := e.senders[key]; ok {
		e.mu.Unlock()
		return s, nil
	}
	e.mu.Unlock()

	c, err := e.dial(peer, channel)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, transport.ErrClosed
	}
	if s, ok := e.senders[key]; ok {
		return s, nil
	}
	s := newSender(e, c)
	e.senders[key] = s
	e.sendWG.Add(1)
	go s.run()
	return s, nil
}

// doneChans recycles the single-use completion channels SendTo waits
// on, so synchronous sends stay allocation-free. Channels are
// pointer-shaped, so boxing one in the pool's interface does not
// allocate.
var doneChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// SendTo transmits b to peer on the given parallel channel and waits
// for the write to complete. b is handed to the transport (on retaining
// transports the receiver is given the very slice), so the caller must
// not reuse or release it — but the comm layer never recycles b into
// the shared wire pool, so a caller-owned buffer can never alias pooled
// traffic even if the caller does reuse it. Hot paths that want the
// buffer recycled draw it from GetBuffer and use SendToAsync. Sends on
// the same (peer, channel) pair are written in enqueue order; distinct
// pairs proceed concurrently on their own persistent sender goroutines.
func (e *Endpoint) SendTo(peer, channel int, b []byte) error {
	s, err := e.senderFor(peer, channel)
	if err != nil {
		return e.peerError("send", peer, err)
	}
	done := doneChans.Get().(chan error)
	s.enqueue(b, false, done)
	err = <-done
	doneChans.Put(done)
	return e.peerError("send", peer, err)
}

// SendToAsync enqueues b on the (peer, channel) persistent sender and
// returns without waiting for the write; exactly one result — including
// setup failures — is later delivered on done, which must have capacity
// >= 1. When the sender's mailbox is full (a producer far ahead of the
// wire) the enqueue itself blocks until the sender drains: bounded
// back-pressure, not unbounded buffering. Callers that cap their own
// in-flight sends (the collectives keep at most two per channel) never
// hit the bound.
//
// This is the pool-recycling path: b must be exclusively owned by the
// caller — drawn from GetBuffer, or a private allocation nothing else
// references — because ownership transfers to the comm layer at the
// call and b re-enters the shared wire pool once the transport is done
// with it (after the write on non-retaining transports such as TCP; on
// retaining transports the receiver assumes ownership and Releases it).
// Passing a buffer that anything else aliases would poison the pool.
// Ring loops allocate one done channel per channel goroutine and reuse
// it every step, which is what keeps the steady-state hot path
// allocation-free.
func (e *Endpoint) SendToAsync(peer, channel int, b []byte, done chan<- error) {
	s, err := e.senderFor(peer, channel)
	if err != nil {
		transport.PutBuf(b)
		done <- err
		return
	}
	s.enqueue(b, true, done)
}

// GetBuffer returns a wire buffer of length n from the shared pool —
// the encode side of the zero-allocation cycle. Pass the previous
// step's wire size as n so the pooled capacity is right-sized.
func GetBuffer(n int) []byte { return transport.GetBuf(n) }

// Release returns a buffer obtained from RecvFrom/RecvPrev (or
// GetBuffer) to the shared wire pool. Call it only when nothing decoded
// from the buffer aliases it, and never touch the buffer afterwards.
func Release(b []byte) { transport.PutBuf(b) }

// RaceGuard reports whether the wire-pool ownership guard is compiled
// in (-race builds). Hot paths gate tag construction behind it.
const RaceGuard = transport.RaceGuard

// TagWire attaches an ownership tag to a pooled wire buffer under
// -race builds, so a pool-poisoning panic can name the owning channel
// and chunk. No-op in production builds.
func TagWire(b []byte, tag string) { transport.TagBuf(b, tag) }

// RecvFrom blocks for the next message from peer on channel. Failures
// are classified like RecvFromCtx, minus ErrPeerTimeout (no deadline).
func (e *Endpoint) RecvFrom(peer, channel int) ([]byte, error) {
	return e.RecvFromCtx(context.Background(), peer, channel)
}

// SendNext sends on the directed ring.
func (e *Endpoint) SendNext(channel int, b []byte) error {
	return e.SendTo(e.Next(), channel, b)
}

// RecvPrev receives on the directed ring.
func (e *Endpoint) RecvPrev(channel int) ([]byte, error) {
	return e.RecvFrom(e.Prev(), channel)
}

// ConnectRing eagerly establishes the PDR: parallelism outbound
// channels to the next neighbor. Calling it is optional — connections
// are established lazily otherwise — but doing so moves connection
// setup out of the timed reduction path, as Sparker does at executor
// registration.
func (e *Endpoint) ConnectRing(parallelism int) error {
	if e.size == 1 {
		return nil
	}
	for ch := 0; ch < parallelism; ch++ {
		if _, err := e.dial(e.Next(), ch); err != nil {
			return err
		}
	}
	return nil
}

// Close tears the endpoint down and unblocks pending receives.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.closeCh)
	conns := make([]transport.Conn, 0, len(e.inbound)+len(e.dialed)+len(e.handshakes))
	for _, c := range e.inbound {
		conns = append(conns, c)
	}
	for _, c := range e.dialed {
		conns = append(conns, c)
	}
	for c := range e.handshakes {
		conns = append(conns, c)
	}
	senders := make([]*sender, 0, len(e.senders))
	for _, s := range e.senders {
		senders = append(senders, s)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	for _, s := range senders {
		s.close()
	}
	e.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	e.sendWG.Wait()
	e.recvWG.Wait()
	<-e.acceptDone
	return nil
}
