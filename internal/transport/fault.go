package transport

// Fault-injection network wrapper. FaultyNetwork decorates any Network
// with deterministic, seed-driven failure modes so the layers above
// (comm, collective, core) can be exercised against dead or misbehaving
// peers entirely in-process — the same role netsim plays for latency
// modelling, but for failures. Rules are matched by listener address,
// which is how a "peer" is identified at this layer: a comm endpoint's
// inbound world is its listening Addr, so matching that Addr captures
// every connection into the peer.
//
// Supported fault kinds:
//
//   - FaultDrop:      sends after the first AfterMsgs messages vanish
//                     silently (the sender sees success) — the silent
//                     peer that motivates recv deadlines.
//   - FaultDelay:     each affected send is delayed by Delay — the
//                     straggler peer.
//   - FaultDuplicate: each affected message is delivered twice (as an
//                     independent copy, so buffer-pool ownership is not
//                     violated) — the retransmitting link.
//   - FaultKill:      once any matching connection has carried AfterMsgs
//                     messages, every matching connection and listener
//                     is closed and future dials to the peer fail — the
//                     executor that dies mid-collective.
//
// All counters are per-connection and all randomness (Prob < 1) derives
// from the network seed and the connection's address, side and ordinal,
// so a given (seed, rules, schedule) is reproducible.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// FaultKind enumerates the injectable failure modes.
type FaultKind int

// Fault kinds. See the package comment on fault injection.
const (
	FaultDrop FaultKind = iota
	FaultDelay
	FaultDuplicate
	FaultKill
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultKill:
		return "kill"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultRule describes one injected fault. A rule applies to every
// connection whose listener address matches Match — both connections
// dialed to that address and connections accepted at it.
type FaultRule struct {
	// Match selects the victim peer(s) by listener address. Nil matches
	// every address.
	Match func(Addr) bool
	// Kind is the failure mode.
	Kind FaultKind
	// AfterMsgs is the number of messages each matching connection
	// carries unharmed before the fault engages (for FaultKill: before
	// the kill triggers). 0 means the fault is active from the first
	// message — "drop all".
	AfterMsgs int
	// Delay is the added per-message latency for FaultDelay.
	Delay time.Duration
	// PerByte, for FaultDelay, adds len(msg) × PerByte on top of Delay,
	// modelling a straggler whose slowdown scales with payload size
	// (a saturated NIC or throttled disk) rather than a fixed stall.
	PerByte time.Duration
	// Prob is the per-message fault probability once engaged, for
	// FaultDrop and FaultDuplicate. 0 means 1.0 (always).
	Prob float64

	killOnce sync.Once
}

// StragglerRule builds a deterministic delay-only slowdown of one peer:
// every message into or out of the listener address selected by match
// is held for delay plus perByte × its size. No drops, duplicates or
// kills — the peer is slow, not broken — which is the straggler shape
// speculative execution must detect and route around.
func StragglerRule(match func(Addr) bool, delay time.Duration, perByte time.Duration) *FaultRule {
	return &FaultRule{Match: match, Kind: FaultDelay, Delay: delay, PerByte: perByte}
}

func (r *FaultRule) matches(addr Addr) bool {
	return r.Match == nil || r.Match(addr)
}

// FaultyNetwork wraps an inner Network with fault injection.
type FaultyNetwork struct {
	inner Network
	seed  int64
	rules []*FaultRule

	mu        sync.Mutex
	conns     map[*faultConn]struct{}
	listeners map[*faultListener]struct{}
	killed    []func(Addr) bool  // dial/listen to these fails
	ordinals  map[connSide]int64 // connections wrapped so far, per side
}

// connSide is the dialed or the accepted side of a listener address.
type connSide struct {
	addr     Addr
	accepted bool
}

// NewFaulty wraps inner with the given fault rules. seed drives every
// probabilistic decision deterministically.
func NewFaulty(inner Network, seed int64, rules ...*FaultRule) *FaultyNetwork {
	return &FaultyNetwork{
		inner:     inner,
		seed:      seed,
		rules:     rules,
		conns:     map[*faultConn]struct{}{},
		listeners: map[*faultListener]struct{}{},
		ordinals:  map[connSide]int64{},
	}
}

// Kill immediately severs every connection and listener whose address
// matches, and makes future Dial/Listen calls on matching addresses
// fail — the programmatic "executor died" switch.
func (n *FaultyNetwork) Kill(match func(Addr) bool) {
	if match == nil {
		match = func(Addr) bool { return true }
	}
	n.mu.Lock()
	n.killed = append(n.killed, match)
	var closers []interface{ Close() error }
	for c := range n.conns {
		if match(c.addr) {
			closers = append(closers, c.inner)
		}
	}
	for l := range n.listeners {
		if match(l.addr) {
			closers = append(closers, l.inner)
		}
	}
	n.mu.Unlock()
	for _, c := range closers {
		c.Close()
	}
}

// isKilled reports whether addr has been killed.
func (n *FaultyNetwork) isKilled(addr Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.isKilledLocked(addr)
}

func (n *FaultyNetwork) isKilledLocked(addr Addr) bool {
	for _, m := range n.killed {
		if m(addr) {
			return true
		}
	}
	return false
}

// Listen implements Network.
func (n *FaultyNetwork) Listen(addr Addr) (Listener, error) {
	if n.isKilled(addr) {
		return nil, fmt.Errorf("transport: fault: peer %q killed: %w", addr, ErrClosed)
	}
	inner, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	l := &faultListener{net: n, inner: inner, addr: addr}
	n.mu.Lock()
	n.listeners[l] = struct{}{}
	n.mu.Unlock()
	return l, nil
}

// Dial implements Network.
func (n *FaultyNetwork) Dial(addr Addr) (Conn, error) {
	if n.isKilled(addr) {
		return nil, fmt.Errorf("transport: fault: peer %q killed: %w", addr, ErrClosed)
	}
	inner, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(inner, connSide{addr: addr}), nil
}

// Close implements Network.
func (n *FaultyNetwork) Close() error {
	n.mu.Lock()
	n.conns = map[*faultConn]struct{}{}
	n.listeners = map[*faultListener]struct{}{}
	n.mu.Unlock()
	return n.inner.Close()
}

// wrap registers and decorates one connection. Its RNG is seeded from
// its address, side and ordinal on that side, which every run of a
// schedule shares, not from the order connections arrive in.
func (n *FaultyNetwork) wrap(inner Conn, side connSide) *faultConn {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%t", side.addr, side.accepted)
	n.mu.Lock()
	ord := n.ordinals[side]
	n.ordinals[side]++
	c := &faultConn{
		net:   n,
		inner: inner,
		addr:  side.addr,
		rng:   rand.New(rand.NewSource(n.seed ^ int64(h.Sum64()) ^ (ord+1)*-0x61C8864680B583EB)),
	}
	for _, r := range n.rules {
		if r.matches(side.addr) {
			c.rules = append(c.rules, r)
		}
	}
	n.conns[c] = struct{}{}
	n.mu.Unlock()
	return c
}

func (n *FaultyNetwork) forget(c *faultConn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// killRule executes a FaultKill trigger exactly once.
func (n *FaultyNetwork) killRule(r *FaultRule) {
	r.killOnce.Do(func() {
		match := r.Match
		if match == nil {
			match = func(Addr) bool { return true }
		}
		n.Kill(match)
	})
}

type faultListener struct {
	net   *FaultyNetwork
	inner Listener
	addr  Addr
}

func (l *faultListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(c, connSide{addr: l.addr, accepted: true}), nil
}

func (l *faultListener) Addr() Addr { return l.addr }

func (l *faultListener) Close() error {
	l.net.mu.Lock()
	delete(l.net.listeners, l)
	l.net.mu.Unlock()
	return l.inner.Close()
}

// faultConn decorates one connection's send path with the matching
// rules. Faults are injected on Send only: the receive side observes
// them as missing, late or repeated messages, exactly as a remote
// failure would look.
type faultConn struct {
	net   *FaultyNetwork
	inner Conn
	addr  Addr
	rules []*FaultRule
	rng   *rand.Rand // guarded by Send's single-caller contract

	mu   sync.Mutex
	sent int
}

// SendRetainsBuffer defers to the inner connection so the comm layer's
// buffer-recycling decision stays correct under injection.
func (c *faultConn) SendRetainsBuffer() bool {
	if sr, ok := c.inner.(SendRetainer); ok {
		return sr.SendRetainsBuffer()
	}
	return true
}

func (c *faultConn) hit(r *FaultRule) bool {
	return r.Prob == 0 || c.rng.Float64() < r.Prob
}

func (c *faultConn) Send(b []byte) error {
	c.mu.Lock()
	c.sent++
	n := c.sent
	c.mu.Unlock()
	for _, r := range c.rules {
		if n <= r.AfterMsgs {
			continue
		}
		switch r.Kind {
		case FaultKill:
			// The triggering message is lost with the peer.
			c.net.killRule(r)
			return fmt.Errorf("transport: fault: peer %q killed: %w", c.addr, ErrClosed)
		case FaultDrop:
			if c.hit(r) {
				// Silent loss: the sender believes the write succeeded.
				// On retaining transports the dropped buffer simply never
				// re-enters circulation, which is safe (never pooled).
				return nil
			}
		case FaultDelay:
			time.Sleep(r.Delay + time.Duration(len(b))*r.PerByte)
		case FaultDuplicate:
			if c.hit(r) {
				// Deliver an independent copy first so pool ownership of
				// b (which transfers on the real Send below) is intact.
				cp := make([]byte, len(b))
				copy(cp, b)
				if err := c.inner.Send(cp); err != nil {
					return err
				}
			}
		}
	}
	return c.inner.Send(b)
}

func (c *faultConn) Recv() ([]byte, error) {
	return c.inner.Recv()
}

func (c *faultConn) Close() error {
	c.net.forget(c)
	return c.inner.Close()
}
