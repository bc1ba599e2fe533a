package rdd

// Elastic membership: the driver-side member service. It owns the
// membership registry (the authoritative slot table), a control channel
// every executor keeps open over the transport, and the reconfiguration
// loop that turns registry epochs into installed cluster views.
//
// Protocol (JSON frames over transport conns at memb/<name>/ctrl):
//
//	executor -> driver:  hello{exec}        register the ctrl conn
//	                     hb{exec}           liveness heartbeat
//	                     leave{exec}        voluntary departure
//	                     reconf-ack{epoch}  phase-1 acknowledgement
//	                     commit-ack{epoch}  phase-2 acknowledgement
//	driver -> executor:  reconf{epoch, group, rank, size, par}
//	                     commit{epoch}
//
// Reconfiguration is two-phase so a ring never half-forms: phase 1 has
// every live executor build and LISTEN a fresh endpoint for the epoch's
// comm group; only after all acks does phase 2 tell them to ConnectRing
// and atomically swap it in (closing the previous epoch's endpoint,
// which makes any stale in-flight collective fail with a classified
// peer error instead of hanging). Epoch 1 keeps the boot group name
// "<name>/ring"; later epochs use "<name>/ring/e<epoch>", so frames
// from a dead epoch cannot even arrive — the addresses differ.
//
// Failure detection is twofold: a ctrl conn dropping evicts its
// executor instantly (the in-memory transport severs both directions on
// close, so a killed executor is detected at the next Recv), and a
// heartbeat monitor evicts members whose last heartbeat — or whose
// ctrl conn itself — is older than hbTimeout, which covers shaped or
// real TCP transports where a dead peer just goes quiet.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/membership"
	"sparker/internal/metrics"
	"sparker/internal/transport"
)

const (
	ctrlHello     = "hello"
	ctrlHB        = "hb"
	ctrlLeave     = "leave"
	ctrlReconf    = "reconf"
	ctrlCommit    = "commit"
	ctrlReconfAck = "reconf-ack"
	ctrlCommitAck = "commit-ack"
)

const (
	hbInterval = 50 * time.Millisecond
	// hbTimeout evicts a member whose heartbeats (or ctrl conn) stop.
	hbTimeout = 2 * time.Second
	// ackTimeout bounds each reconfiguration phase per executor.
	ackTimeout = 5 * time.Second
	// connGrace is how long reconfiguration waits for a joining
	// executor's ctrl conn to appear before evicting it.
	connGrace = 3 * time.Second
	// noConnGrace is how long the heartbeat monitor tolerates a live
	// member with no registered ctrl conn before evicting it. It must
	// cover a joiner's worst-case boot: adopting a dead slot can spend
	// up to ~2s each in the block-store and task-listener retry loops
	// before the ctrl dial (see newExecutor/listenRetry), so hbTimeout
	// alone would evict a legitimately booting replacement.
	noConnGrace = 6 * time.Second
	// drainTimeout caps how long a graceful (join/leave-only)
	// reconfiguration waits for in-flight collectives to finish before
	// pushing the new epoch anyway. Evictions never wait: the dead
	// executor has already broken any collective it was part of.
	drainTimeout = 3 * time.Second
	// memberOpTimeout bounds AddExecutor/RemoveExecutor waiting for
	// their epoch to be installed.
	memberOpTimeout = 15 * time.Second
)

// ctrlMsg is one control-channel frame, either direction.
type ctrlMsg struct {
	Kind        string `json:"kind"`
	Exec        int    `json:"exec,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Group       string `json:"group,omitempty"`
	Rank        int    `json:"rank,omitempty"`
	Size        int    `json:"size,omitempty"`
	Parallelism int    `json:"par,omitempty"`
}

func ctrlAddr(name string) transport.Addr {
	return transport.Addr("memb/" + name + "/ctrl")
}

// ringGroup names the comm group of a membership epoch. Epoch 1 is the
// boot ring, named exactly as the fixed-membership engine named it.
func ringGroup(name string, epoch uint64) string {
	if epoch <= 1 {
		return name + "/ring"
	}
	return fmt.Sprintf("%s/ring/e%d", name, epoch)
}

// clusterView is one installed membership epoch plus the rank geometry
// derived from it — what every placement, owner-math and collective
// path resolves against. Immutable once installed.
type clusterView struct {
	view *membership.View
	// execOfRank maps ring rank -> executor ID; length is NumLive.
	execOfRank []int
	// rankOfExec maps executor ID -> ring rank, -1 for dead slots;
	// length is NumSlots.
	rankOfExec []int
	// group is the comm group name collectives of this epoch ride on.
	group string
}

// ctrlPeer is the driver's handle on one executor's control conn.
type ctrlPeer struct {
	id     int
	gen    uint64 // incarnation generation, from the hello frame
	c      transport.Conn
	sendMu sync.Mutex
	acks   chan ctrlMsg
	lastHB atomic.Int64 // unix nanos of the last heartbeat (or hello)
}

func (p *ctrlPeer) send(m ctrlMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return p.c.Send(b)
}

// memberSvc is the driver-side membership plane.
type memberSvc struct {
	ctx *Context
	reg *membership.Registry
	lis transport.Listener

	mu      sync.Mutex
	conns   map[int]*ctrlPeer
	epochCh chan struct{} // closed and replaced on every install
	closed  bool

	installed atomic.Pointer[clusterView]
	kick      chan struct{} // cap 1: coalesced reconfiguration wakeups
	quit      chan struct{}
	wg        sync.WaitGroup

	hookMu sync.Mutex
	hooks  []func(*membership.View)
}

// newMemberSvc boots the membership plane: registry at epoch 1 (every
// configured executor alive), the ctrl listener, and the service
// goroutines. The boot clusterView is installed immediately from the
// context's boot topology so accessors work before any reconfiguration.
func newMemberSvc(ctx *Context) (*memberSvc, error) {
	lis, err := ctx.net.Listen(ctrlAddr(ctx.conf.Name))
	if err != nil {
		return nil, fmt.Errorf("rdd: membership ctrl listener: %w", err)
	}
	svc := &memberSvc{
		ctx:     ctx,
		reg:     membership.NewRegistry(ctx.conf.Hosts),
		lis:     lis,
		conns:   make(map[int]*ctrlPeer),
		epochCh: make(chan struct{}),
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	// Boot view: epoch 1, every slot alive, ranks from the boot topology.
	boot := svc.reg.View()
	execOfRank := ctx.topo.ExecOfRank()
	rankOfExec := make([]int, boot.NumSlots())
	for r, e := range execOfRank {
		rankOfExec[e] = r
	}
	svc.installed.Store(&clusterView{
		view:       boot,
		execOfRank: execOfRank,
		rankOfExec: rankOfExec,
		group:      ringGroup(ctx.conf.Name, 1),
	})
	svc.reg.Subscribe(func(*membership.View) { svc.kickReconfig() })
	svc.wg.Add(3)
	go svc.serve()
	go svc.run()
	go svc.monitor()
	ctx.reg.Gauge(metrics.GaugeLiveExecutors).Set(int64(boot.NumLive()))
	ctx.reg.Gauge(metrics.GaugeMembershipEpoch).Set(1)
	return svc, nil
}

func (svc *memberSvc) kickReconfig() {
	select {
	case svc.kick <- struct{}{}:
	default:
	}
}

func (svc *memberSvc) close() {
	svc.mu.Lock()
	if svc.closed {
		svc.mu.Unlock()
		return
	}
	svc.closed = true
	conns := make([]*ctrlPeer, 0, len(svc.conns))
	for _, p := range svc.conns {
		conns = append(conns, p)
	}
	svc.mu.Unlock()
	close(svc.quit)
	svc.lis.Close()
	for _, p := range conns {
		p.c.Close()
	}
	svc.wg.Wait()
}

func (svc *memberSvc) isClosed() bool {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.closed
}

// serve accepts executor control connections.
func (svc *memberSvc) serve() {
	defer svc.wg.Done()
	for {
		c, err := svc.lis.Accept()
		if err != nil {
			return
		}
		svc.wg.Add(1)
		go svc.handle(c)
	}
}

// handle runs one executor's ctrl conn: hello registers it, then the
// loop consumes heartbeats, leave announcements and phase acks. A Recv
// error while this conn is still the registered one means the executor
// died — evict it.
func (svc *memberSvc) handle(c transport.Conn) {
	defer svc.wg.Done()
	b, err := c.Recv()
	if err != nil {
		c.Close()
		return
	}
	var hello ctrlMsg
	if json.Unmarshal(b, &hello) != nil || hello.Kind != ctrlHello {
		c.Close()
		return
	}
	id := hello.Exec
	p := &ctrlPeer{id: id, gen: hello.Epoch, c: c, acks: make(chan ctrlMsg, 8)}
	p.lastHB.Store(time.Now().UnixNano())
	svc.mu.Lock()
	old := svc.conns[id]
	if old != nil && old.gen > p.gen {
		// A stale incarnation's hello arriving after its replacement
		// registered must not displace the replacement's conn.
		svc.mu.Unlock()
		c.Close()
		return
	}
	svc.conns[id] = p
	closed := svc.closed
	svc.mu.Unlock()
	if old != nil {
		old.c.Close()
	}
	if closed {
		c.Close()
		return
	}
	for {
		b, err := c.Recv()
		if err != nil {
			svc.mu.Lock()
			current := svc.conns[id] == p
			if current {
				delete(svc.conns, id)
			}
			closed := svc.closed
			svc.mu.Unlock()
			c.Close()
			if current && !closed {
				// Evict only the incarnation this conn belonged to: if the
				// registry already re-assigned the slot to a replacement
				// (coalesced leave+rejoin), the stale conn's death says
				// nothing about the new member's health.
				svc.reg.EvictIncarnation(id, p.gen, "control connection lost")
			}
			return
		}
		var m ctrlMsg
		if json.Unmarshal(b, &m) != nil {
			continue
		}
		switch m.Kind {
		case ctrlHB:
			p.lastHB.Store(time.Now().UnixNano())
		case ctrlLeave:
			// Only the slot's current incarnation may retire it.
			if svc.reg.View().JoinEpochOf(id) == p.gen {
				svc.reg.Leave(id)
			}
		case ctrlReconfAck, ctrlCommitAck:
			select {
			case p.acks <- m:
			default:
			}
		}
	}
}

// monitor is the slow-path failure detector: members whose heartbeats
// stop get evicted after hbTimeout, members that never present a ctrl
// conn after noConnGrace. The fast path — ctrl conn severed — is
// handled inline by handle.
//
// missingSince is keyed by (slot, incarnation join epoch), not slot id
// alone: slots are reused across kill-and-replace, and a timestamp left
// behind by an incarnation evicted through another path (ctrl-conn
// loss, reconfiguration timeout) must never count against a replacement
// that later adopts the slot. Entries whose incarnation is no longer
// live are pruned every tick.
func (svc *memberSvc) monitor() {
	defer svc.wg.Done()
	t := time.NewTicker(hbTimeout / 4)
	defer t.Stop()
	type incKey struct {
		id  int
		gen uint64
	}
	missingSince := make(map[incKey]time.Time)
	for {
		select {
		case <-svc.quit:
			return
		case <-t.C:
		}
		now := time.Now()
		view := svc.reg.View()
		liveNow := make(map[incKey]bool, view.NumLive())
		for _, id := range view.Live() {
			k := incKey{id: id, gen: view.JoinEpochOf(id)}
			liveNow[k] = true
			svc.mu.Lock()
			p := svc.conns[id]
			svc.mu.Unlock()
			if p == nil || p.gen != k.gen {
				// No conn for THIS incarnation yet (a leftover conn from a
				// replaced incarnation does not count as liveness).
				if since, ok := missingSince[k]; !ok {
					missingSince[k] = now
				} else if now.Sub(since) > noConnGrace {
					delete(missingSince, k)
					svc.reg.EvictIncarnation(id, k.gen, "no control connection")
				}
				continue
			}
			delete(missingSince, k)
			if now.Sub(time.Unix(0, p.lastHB.Load())) > hbTimeout {
				p.c.Close() // handle's Recv fails and evicts
			}
		}
		for k := range missingSince {
			if !liveNow[k] {
				delete(missingSince, k)
			}
		}
	}
}

// run is the reconfiguration loop: whenever the registry is ahead of
// the installed view, push the newest epoch to the live set. A failed
// push evicts the unresponsive member (bumping the registry epoch) and
// the loop retries against the new target — it converges because every
// failure shrinks the live set.
func (svc *memberSvc) run() {
	defer svc.wg.Done()
	for {
		select {
		case <-svc.quit:
			return
		case <-svc.kick:
		}
		for {
			select {
			case <-svc.quit:
				return
			default:
			}
			cur := svc.installed.Load()
			target := svc.reg.View()
			if target.Epoch <= cur.view.Epoch {
				break
			}
			svc.reconfigure(cur, target)
		}
	}
}

// hadEvictions reports whether any epoch in (after, upto] was an
// eviction — those reconfigurations must not wait for collective drain.
func (svc *memberSvc) hadEvictions(after, upto uint64) bool {
	for _, ev := range svc.reg.History() {
		if ev.Epoch > after && ev.Epoch <= upto && ev.Kind == "evict" {
			return true
		}
	}
	return false
}

func (svc *memberSvc) drainCollectives(deadline time.Time) {
	for time.Now().Before(deadline) {
		if len(svc.ctx.InflightCollectives()) == 0 {
			return
		}
		select {
		case <-svc.quit:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// buildClusterView derives the rank geometry of a target epoch: live
// executors sorted by hostname (the same rank order comm.RanksByHost
// produces at boot).
func (svc *memberSvc) buildClusterView(target *membership.View) *clusterView {
	order := append([]int(nil), target.Live()...)
	sort.SliceStable(order, func(i, j int) bool {
		return target.HostOf(order[i]) < target.HostOf(order[j])
	})
	rankOfExec := make([]int, target.NumSlots())
	for i := range rankOfExec {
		rankOfExec[i] = -1
	}
	for r, e := range order {
		rankOfExec[e] = r
	}
	return &clusterView{
		view:       target,
		execOfRank: order,
		rankOfExec: rankOfExec,
		group:      ringGroup(svc.ctx.conf.Name, target.Epoch),
	}
}

// waitPeer waits for a ctrl conn of executor id's generation gen (a
// joiner may still be dialing), bounded by deadline. A registered conn
// of an OLDER generation is a departed incarnation that has not been
// torn down yet — it must not receive the new epoch's protocol frames
// (it would wire the wrong process into the ring at the replacement's
// rank), so it counts as missing and the wait continues for the
// replacement's hello. A NEWER generation means the registry has
// already moved past the target view; the wait gives up immediately so
// the run loop can retry against the fresher view.
func (svc *memberSvc) waitPeer(id int, gen uint64, deadline time.Time) *ctrlPeer {
	for {
		svc.mu.Lock()
		p := svc.conns[id]
		svc.mu.Unlock()
		if p != nil {
			if p.gen == gen {
				return p
			}
			if p.gen > gen {
				return nil
			}
		}
		if !time.Now().Before(deadline) {
			return nil
		}
		select {
		case <-svc.quit:
			return nil
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// awaitAck drains p.acks until a frame of the wanted kind and epoch
// arrives (stale epochs' acks are discarded), bounded by ackTimeout.
func (svc *memberSvc) awaitAck(p *ctrlPeer, kind string, epoch uint64) bool {
	deadline := time.NewTimer(ackTimeout)
	defer deadline.Stop()
	for {
		select {
		case m := <-p.acks:
			if m.Kind == kind && m.Epoch == epoch {
				return true
			}
		case <-deadline.C:
			return false
		case <-svc.quit:
			return false
		}
	}
}

// reconfigure pushes target to every live executor in two phases and
// installs the resulting clusterView. Any per-executor failure evicts
// that executor and returns; the run loop retries with the new target.
func (svc *memberSvc) reconfigure(cur *clusterView, target *membership.View) {
	if !svc.hadEvictions(cur.view.Epoch, target.Epoch) {
		svc.drainCollectives(time.Now().Add(drainTimeout))
	}
	next := svc.buildClusterView(target)
	live := target.Live()
	peers := make([]*ctrlPeer, len(live))
	connDeadline := time.Now().Add(connGrace)
	for i, id := range live {
		if peers[i] = svc.waitPeer(id, target.JoinEpochOf(id), connDeadline); peers[i] == nil {
			if svc.isClosed() {
				return
			}
			if svc.reg.View().Epoch > target.Epoch {
				// The registry moved past target while we waited (e.g. the
				// slot's incarnation changed again); retry against the
				// fresher view instead of evicting anyone.
				return
			}
			svc.reg.EvictIncarnation(id, target.JoinEpochOf(id), "no control connection at reconfiguration")
			return
		}
	}
	// Phase 1: every member builds and listens its endpoint for the new
	// group, so phase 2's ConnectRing finds all peers accepting. Failure
	// evictions name the incarnation the frame was aimed at: a send to a
	// gen-matched peer failing says nothing about any replacement the
	// registry may have admitted to the slot since.
	for i, id := range live {
		err := peers[i].send(ctrlMsg{
			Kind: ctrlReconf, Epoch: target.Epoch, Group: next.group,
			Rank: next.rankOfExec[id], Size: len(live),
			Parallelism: svc.ctx.conf.RingParallelism,
		})
		if err != nil {
			svc.reg.EvictIncarnation(id, peers[i].gen, "reconf push failed")
			return
		}
	}
	for i, id := range live {
		if !svc.awaitAck(peers[i], ctrlReconfAck, target.Epoch) {
			if svc.isClosed() {
				return
			}
			svc.reg.EvictIncarnation(id, peers[i].gen, "reconf unacknowledged")
			return
		}
	}
	// Phase 2: wire the ring and swap endpoints.
	for i, id := range live {
		if err := peers[i].send(ctrlMsg{Kind: ctrlCommit, Epoch: target.Epoch}); err != nil {
			svc.reg.EvictIncarnation(id, peers[i].gen, "commit push failed")
			return
		}
	}
	for i, id := range live {
		if !svc.awaitAck(peers[i], ctrlCommitAck, target.Epoch) {
			if svc.isClosed() {
				return
			}
			svc.reg.EvictIncarnation(id, peers[i].gen, "commit unacknowledged")
			return
		}
	}
	svc.install(cur, next)
}

// install publishes next as the cluster view, wakes epoch waiters and
// runs the driver-side consequences (scheduler diff, conn teardown,
// metrics, re-replication hooks). The departing incarnations are
// captured BEFORE the epoch becomes visible: the instant waiters wake,
// AddExecutor may boot a replacement into a departed slot, and
// teardown keyed by slot id alone would clobber the new incarnation.
func (svc *memberSvc) install(old, next *clusterView) {
	departed := svc.captureDeparted(old, next)
	svc.installed.Store(next)
	svc.mu.Lock()
	close(svc.epochCh)
	svc.epochCh = make(chan struct{})
	svc.mu.Unlock()
	svc.ctx.postReconfigure(old, next, departed)
}

// departedExec is one incarnation removed by an installed epoch.
type departedExec struct {
	id   int
	e    *Executor // nil if already replaced or never booted
	peer *ctrlPeer // nil if the ctrl conn is already gone
}

// captureDeparted swaps out the executor objects and ctrl conns of
// every incarnation next leaves behind. Slots are diffed by
// incarnation, not liveness: when epochs coalesce (the run loop always
// jumps to the newest registry view), an eviction and a replacement
// join of the same slot can land in one install, leaving the slot live
// in both views — but the incarnation differs, and the dead
// incarnation's scheduler state, conns and executor object still need
// tearing down. Matching is by generation (the incarnation's join
// epoch): anything older than next's incarnation at the slot departed;
// a replacement booted for a later epoch (gen beyond next) is left
// untouched.
func (svc *memberSvc) captureDeparted(old, next *clusterView) []departedExec {
	var out []departedExec
	slots := next.view.NumSlots()
	if o := old.view.NumSlots(); o > slots {
		slots = o
	}
	for id := 0; id < slots; id++ {
		// genLimit is the exclusive upper bound on departed generations at
		// this slot: the live incarnation's join epoch when next occupies
		// the slot, else everything through next's epoch (a join+evict
		// pair coalesced into one install leaves a dead slot whose
		// intermediate incarnation still needs teardown).
		genLimit := next.view.Epoch + 1
		if next.view.IsLive(id) {
			genLimit = next.view.JoinEpochOf(id)
		}
		d := departedExec{id: id}
		svc.ctx.execMu.Lock()
		if id < len(svc.ctx.executors) {
			if e := svc.ctx.executors[id]; e != nil && e.gen < genLimit {
				d.e = e
				svc.ctx.executors[id] = nil
			}
		}
		svc.ctx.execMu.Unlock()
		svc.mu.Lock()
		if p := svc.conns[id]; p != nil && p.gen < genLimit {
			delete(svc.conns, id)
			d.peer = p
		}
		svc.mu.Unlock()
		removed := old.view.IsLive(id) && !membership.SameIncarnation(old.view, next.view, id)
		if removed || d.e != nil || d.peer != nil {
			out = append(out, d)
		}
	}
	return out
}

func (svc *memberSvc) epochWaiter() <-chan struct{} {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.epochCh
}

func (svc *memberSvc) hooksSnapshot() []func(*membership.View) {
	svc.hookMu.Lock()
	defer svc.hookMu.Unlock()
	return append([]func(*membership.View){}, svc.hooks...)
}

// ---------------------------------------------------------------------
// Context membership API
// ---------------------------------------------------------------------

// ErrNotLive reports an operation aimed at an executor outside the
// current live set.
var ErrNotLive = errors.New("rdd: executor is not live")

// clusterView returns the installed membership epoch's view; nil only
// during a failed partial boot.
func (ctx *Context) clusterView() *clusterView {
	if ctx.memb == nil {
		return nil
	}
	return ctx.memb.installed.Load()
}

// Membership returns the installed membership view — the epoch every
// placement and owner-math decision currently resolves against.
func (ctx *Context) Membership() *membership.View {
	return ctx.clusterView().view
}

// MembershipEpoch returns the installed membership epoch.
func (ctx *Context) MembershipEpoch() uint64 {
	return ctx.clusterView().view.Epoch
}

// MembershipHistory returns the registry's committed membership events.
func (ctx *Context) MembershipHistory() []membership.Event {
	return ctx.memb.reg.History()
}

// LiveExecutors returns the installed epoch's ascending live executor
// IDs. The slice is shared; callers must not mutate it.
func (ctx *Context) LiveExecutors() []int {
	return ctx.clusterView().view.Live()
}

// NumLiveExecutors returns the installed epoch's live executor count.
func (ctx *Context) NumLiveExecutors() int {
	return ctx.clusterView().view.NumLive()
}

// OwnerOf resolves partition p to its owning live executor under the
// installed epoch — the single placement-resolution path. With every
// slot alive it equals p % NumExecutors.
func (ctx *Context) OwnerOf(p int) int {
	return ctx.clusterView().view.OwnerOf(p)
}

// CollectiveGroup returns the comm group name of the installed epoch's
// ring — collectives of epoch E ride on E's group, so frames from a
// stale epoch cannot arrive on the current ring.
func (ctx *Context) CollectiveGroup() string {
	return ctx.clusterView().group
}

// AwaitReconfigured blocks until the installed epoch differs from
// epoch0 or timeout elapses, reporting whether it changed. Collective
// retry uses it to distinguish "membership changed, retry against the
// new epoch" from "peer hiccup, use the degraded fallback".
func (ctx *Context) AwaitReconfigured(epoch0 uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if ctx.MembershipEpoch() != epoch0 {
			return true
		}
		ch := ctx.memb.epochWaiter()
		if ctx.MembershipEpoch() != epoch0 {
			return true
		}
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		t := time.NewTimer(d)
		select {
		case <-ch:
		case <-t.C:
		case <-ctx.memb.quit:
		}
		t.Stop()
		if ctx.MembershipEpoch() != epoch0 {
			return true
		}
		if !time.Now().Before(deadline) || ctx.memb.isClosed() {
			return false
		}
	}
}

// awaitInstalled waits for an installed view satisfying pred.
func (ctx *Context) awaitInstalled(pred func(*clusterView) bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if pred(ctx.clusterView()) {
			return true
		}
		ch := ctx.memb.epochWaiter()
		if pred(ctx.clusterView()) {
			return true
		}
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		t := time.NewTimer(d)
		select {
		case <-ch:
		case <-t.C:
		case <-ctx.memb.quit:
			t.Stop()
			return pred(ctx.clusterView())
		}
		t.Stop()
	}
}

// OnReconfigure registers f to run (on the reconfiguration goroutine)
// after each new membership epoch is installed — the hook point
// checkpoint re-replication uses to restore its replica invariant when
// executors come or go. Hooks must not block: a blocked hook stalls all
// further epoch installs, so long-running reactions (repair jobs,
// re-replication) must hand off to their own goroutine — see
// installCkptRepairHook for the kick-and-coalesce pattern.
func (ctx *Context) OnReconfigure(f func(*membership.View)) {
	ctx.memb.hookMu.Lock()
	ctx.memb.hooks = append(ctx.memb.hooks, f)
	ctx.memb.hookMu.Unlock()
}

// AddExecutor joins a new executor to the cluster: the registry assigns
// it a slot (adopting the oldest dead slot if one exists — a
// replacement inherits the dead rank's identity — else growing the
// table), the executor boots and dials the ctrl channel, and the call
// returns once the epoch including it is installed. host "" picks a
// fresh hostname.
func (ctx *Context) AddExecutor(host string) (int, error) {
	if host == "" {
		host = fmt.Sprintf("node-%03d", ctx.NumExecutors())
	}
	id, v := ctx.memb.reg.Join(host)
	e, err := newExecutor(ctx, id, host, -1, v.Epoch)
	if err != nil {
		ctx.memb.reg.EvictIncarnation(id, v.Epoch, "executor boot failed")
		return -1, fmt.Errorf("rdd: booting executor %d: %w", id, err)
	}
	if prev := ctx.swapExecutor(id, e); prev != nil && prev.gen < e.gen {
		// The slot was Dead when Join adopted it, so any executor object
		// still parked there is a departed incarnation whose teardown
		// epoch has not installed yet. Kill it here — once the new object
		// occupies the slot, captureDeparted can no longer reach it.
		prev.kill()
	}
	ok := ctx.awaitInstalled(func(cv *clusterView) bool {
		return cv.view.Epoch >= v.Epoch && cv.view.IsLive(id)
	}, memberOpTimeout)
	if !ok {
		return id, fmt.Errorf("rdd: executor %d joined the registry but reconfiguration did not install it", id)
	}
	return id, nil
}

// RemoveExecutor gracefully retires executor id: the executor announces
// a voluntary leave on its ctrl channel, the reconfiguration (after a
// bounded drain of in-flight collectives) installs an epoch without it,
// and the executor is shut down. Blocks until the departure epoch is
// installed so a subsequent AddExecutor can safely reuse the slot.
func (ctx *Context) RemoveExecutor(id int) error {
	v := ctx.Membership()
	if !v.IsLive(id) {
		return fmt.Errorf("%w: executor %d", ErrNotLive, id)
	}
	e := ctx.executorAt(id)
	if e == nil || e.sendLeave() != nil {
		// No reachable executor object (or a severed ctrl conn): record
		// the departure driver-side.
		ctx.memb.reg.Leave(id)
	}
	ok := ctx.awaitInstalled(func(cv *clusterView) bool {
		return cv.view.Epoch > v.Epoch && !cv.view.IsLive(id)
	}, memberOpTimeout)
	if !ok {
		return fmt.Errorf("rdd: executor %d leave was not installed in time", id)
	}
	return nil
}

// KillExecutor hard-kills executor id — the chaos path. Every listener,
// endpoint and conn the executor owns closes immediately (in-flight
// tasks and ring steps fail with classified errors); the driver's
// failure detector notices the severed ctrl conn and evicts the member,
// which triggers reconfiguration. Returns without waiting for the new
// epoch: detection is the point being exercised.
func (ctx *Context) KillExecutor(id int) error {
	e := ctx.executorAt(id)
	if e == nil {
		return fmt.Errorf("rdd: no executor %d", id)
	}
	e.kill()
	return nil
}

// executorAt returns the executor object at slot id (nil for dead or
// out-of-range slots).
func (ctx *Context) executorAt(id int) *Executor {
	ctx.execMu.RLock()
	defer ctx.execMu.RUnlock()
	if id < 0 || id >= len(ctx.executors) {
		return nil
	}
	return ctx.executors[id]
}

// setExecutor installs e at slot id, growing the table as needed.
func (ctx *Context) setExecutor(id int, e *Executor) {
	ctx.swapExecutor(id, e)
}

// swapExecutor installs e at slot id, growing the table as needed, and
// returns the previous occupant (nil for an empty slot).
func (ctx *Context) swapExecutor(id int, e *Executor) *Executor {
	ctx.execMu.Lock()
	for len(ctx.executors) <= id {
		ctx.executors = append(ctx.executors, nil)
	}
	prev := ctx.executors[id]
	ctx.executors[id] = e
	ctx.execMu.Unlock()
	return prev
}

// executorSnapshot returns the executor table under the lock.
func (ctx *Context) executorSnapshot() []*Executor {
	ctx.execMu.RLock()
	defer ctx.execMu.RUnlock()
	return append([]*Executor(nil), ctx.executors...)
}

// postReconfigure applies an installed epoch to the rest of the driver:
// scheduler slot diff, departed incarnations' teardown, observability,
// and the registered re-replication hooks. Runs on the reconfiguration
// goroutine. departed carries the incarnations captured before the
// epoch was published (see captureDeparted): the ctrl conn was already
// deregistered, so closing it cannot evict a replacement that has
// since adopted the slot, and the executor pointer — not the slot id —
// is what gets killed.
func (ctx *Context) postReconfigure(old, next *clusterView, departed []departedExec) {
	for _, d := range departed {
		ctx.sched.RemoveExecutor(d.id)
		if d.peer != nil {
			d.peer.c.Close()
		}
		if d.e != nil {
			d.e.kill()
		}
		ctx.closeExecutorConns(d.id)
	}
	// Slots live in next but not carried over from old by the same
	// incarnation come up fresh: a genuinely new join, or a replacement
	// whose predecessor was torn down just above (coalesced
	// evict+rejoin — remove-then-add, never "unchanged").
	for _, id := range next.view.Live() {
		if !membership.SameIncarnation(old.view, next.view, id) {
			ctx.sched.AddExecutor(id)
		}
	}
	// Observability: one marker per membership event in (old, next] —
	// markers double as flight-recorder triggers, so an eviction dumps a
	// postmortem bundle stamped with the epoch.
	for _, ev := range ctx.memb.reg.History() {
		if ev.Epoch <= old.view.Epoch || ev.Epoch > next.view.Epoch {
			continue
		}
		detail := fmt.Sprintf("epoch=%d exec=%d host=%s %s", ev.Epoch, ev.Exec, ev.Host, ev.Detail)
		switch ev.Kind {
		case "join":
			ctx.RecordMarker(metrics.CounterExecutorJoin, detail)
		case "leave":
			ctx.RecordMarker(metrics.CounterExecutorLeave, detail)
		case "evict":
			ctx.RecordMarker(metrics.CounterExecutorEvict, detail)
		}
	}
	ctx.reg.Gauge(metrics.GaugeLiveExecutors).Set(int64(next.view.NumLive()))
	ctx.reg.Gauge(metrics.GaugeMembershipEpoch).Set(int64(next.view.Epoch))
	if obs := ctx.conf.Obsv; obs != nil {
		obs.EnsureExecRings(next.view.NumSlots())
		obs.Marker("membership-reconfigured",
			fmt.Sprintf("epoch=%d live=%d slots=%d", next.view.Epoch, next.view.NumLive(), next.view.NumSlots()))
	}
	for _, h := range ctx.memb.hooksSnapshot() {
		h(next.view)
	}
}

// connectBootRing wires the epoch-1 ring eagerly so connection setup
// stays out of timed paths (later epochs wire during phase 2).
func (ctx *Context) connectBootRing() error {
	for _, e := range ctx.executorSnapshot() {
		if e == nil {
			continue
		}
		if ep := e.endpoint(); ep != nil {
			if err := ep.ConnectRing(ctx.conf.RingParallelism); err != nil {
				return err
			}
		}
	}
	return nil
}
