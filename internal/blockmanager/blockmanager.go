// Package blockmanager reproduces the role of Spark's BlockManager: a
// distributed key-value block store with a driver-side master that
// tracks block locations, and per-executor stores that hold block
// payloads and serve remote fetches.
//
// The rdd engine stores intermediate stage outputs (the "shuffle"
// blocks of treeAggregate) here, and the package also provides the
// BlockManager-based message-passing baseline the paper measured at
// 3861µs latency (Figure 12): every logical message costs a local put,
// two master round-trips and a remote fetch — exactly the chattiness
// that made it 242× slower than MPI and motivated the scalable
// communicator.
package blockmanager

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/transport"
)

// Wire protocol commands (1 byte) shared by master and store servers.
const (
	cmdPutLoc   = 1 // blockID, owner           -> ok
	cmdGetLoc   = 2 // blockID                  -> owner ("" if unknown)
	cmdRemove   = 3 // blockID                  -> ok
	cmdEnqueue  = 4 // dst, blockID             -> ok
	cmdDequeue  = 5 // dst                      -> blockID ("" if empty)
	cmdFetch    = 6 // blockID                  -> payload (status byte)
	cmdDelete   = 7 // blockID                  -> ok
	statusOK    = 0
	statusNotOK = 1
)

// --- framing helpers ---------------------------------------------------

func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func readStr(src []byte) (string, []byte, error) {
	if len(src) < 4 {
		return "", nil, fmt.Errorf("blockmanager: short string header")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if len(src) < 4+n {
		return "", nil, fmt.Errorf("blockmanager: short string body")
	}
	return string(src[4 : 4+n]), src[4+n:], nil
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func readBytes(src []byte) ([]byte, []byte, error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("blockmanager: short bytes header")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if len(src) < 4+n {
		return nil, nil, fmt.Errorf("blockmanager: short bytes body")
	}
	return src[4 : 4+n], src[4+n:], nil
}

// --- master ------------------------------------------------------------

// Master is the driver-side directory: block locations plus per-
// destination message queues for the messaging baseline.
type Master struct {
	lis transport.Listener

	mu     sync.Mutex
	loc    map[string]string   // blockID -> store name
	queues map[string][]string // dst store -> pending blockIDs
	done   chan struct{}
}

// MasterAddr is the well-known address of the block manager master.
const MasterAddr transport.Addr = "bm/master"

// NewMaster starts the master service on net.
func NewMaster(net transport.Network) (*Master, error) {
	lis, err := net.Listen(MasterAddr)
	if err != nil {
		return nil, err
	}
	m := &Master{
		lis:    lis,
		loc:    map[string]string{},
		queues: map[string][]string{},
		done:   make(chan struct{}),
	}
	go m.serve()
	return m, nil
}

func (m *Master) serve() {
	for {
		c, err := m.lis.Accept()
		if err != nil {
			return
		}
		go m.handle(c)
	}
}

func (m *Master) handle(c transport.Conn) {
	defer c.Close()
	for {
		req, err := c.Recv()
		if err != nil {
			return
		}
		if len(req) < 1 {
			return
		}
		resp := m.dispatch(req)
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

func (m *Master) dispatch(req []byte) []byte {
	cmd, body := req[0], req[1:]
	m.mu.Lock()
	defer m.mu.Unlock()
	switch cmd {
	case cmdPutLoc:
		id, rest, err := readStr(body)
		if err != nil {
			return []byte{statusNotOK}
		}
		owner, _, err := readStr(rest)
		if err != nil {
			return []byte{statusNotOK}
		}
		m.loc[id] = owner
		return []byte{statusOK}
	case cmdGetLoc:
		id, _, err := readStr(body)
		if err != nil {
			return []byte{statusNotOK}
		}
		return appendStr([]byte{statusOK}, m.loc[id])
	case cmdRemove:
		id, _, err := readStr(body)
		if err != nil {
			return []byte{statusNotOK}
		}
		delete(m.loc, id)
		return []byte{statusOK}
	case cmdEnqueue:
		dst, rest, err := readStr(body)
		if err != nil {
			return []byte{statusNotOK}
		}
		id, _, err := readStr(rest)
		if err != nil {
			return []byte{statusNotOK}
		}
		m.queues[dst] = append(m.queues[dst], id)
		return []byte{statusOK}
	case cmdDequeue:
		dst, _, err := readStr(body)
		if err != nil {
			return []byte{statusNotOK}
		}
		q := m.queues[dst]
		if len(q) == 0 {
			return appendStr([]byte{statusOK}, "")
		}
		id := q[0]
		m.queues[dst] = q[1:]
		return appendStr([]byte{statusOK}, id)
	default:
		return []byte{statusNotOK}
	}
}

// Close stops the master.
func (m *Master) Close() error {
	select {
	case <-m.done:
	default:
		close(m.done)
	}
	return m.lis.Close()
}

// --- store ---------------------------------------------------------------

// Store is one executor's block shard. It serves remote fetches and
// talks to the master for location metadata.
type Store struct {
	name string
	net  transport.Network
	lis  transport.Listener

	mu     sync.Mutex
	blocks map[string][]byte
	seq    uint64

	masterMu   sync.Mutex
	masterConn transport.Conn

	peerMu    sync.Mutex
	peerConns map[string]*peerConn

	// accepted tracks inbound serving conns so Close severs them: a
	// killed store must stop answering fetches through conns its peers
	// cached, or a replacement's clients could read the dead
	// incarnation's stale blocks.
	acceptMu sync.Mutex
	accepted map[transport.Conn]struct{}
	closed   bool

	// inst, when set, carries the put/get histograms of the owning
	// executor's registry. Atomic pointer so SetMetrics is safe against
	// in-flight block traffic; nil keeps the store uninstrumented (one
	// pointer load per operation, no clock reads).
	inst atomic.Pointer[storeInstruments]
}

// storeInstruments bundles the block-I/O histograms resolved once at
// SetMetrics time so the data path never takes the registry lock.
type storeInstruments struct {
	putNS, putBytes *metrics.Histogram
	getNS, getBytes *metrics.Histogram
}

// SetMetrics wires block put/get latency and size histograms into reg.
// Nil reg disables instrumentation.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		s.inst.Store(nil)
		return
	}
	s.inst.Store(&storeInstruments{
		putNS:    reg.Histogram(metrics.HistBlockPutNS),
		putBytes: reg.Histogram(metrics.HistBlockPutBytes),
		getNS:    reg.Histogram(metrics.HistBlockGetNS),
		getBytes: reg.Histogram(metrics.HistBlockGetBytes),
	})
}

type peerConn struct {
	mu   sync.Mutex
	conn transport.Conn
}

func storeAddr(name string) transport.Addr {
	return transport.Addr("bm/store/" + name)
}

// NewStore starts the block store named name on net. A Master must be
// running on the same net before Get or messaging is used.
func NewStore(net transport.Network, name string) (*Store, error) {
	lis, err := net.Listen(storeAddr(name))
	if err != nil {
		return nil, err
	}
	s := &Store{
		name:      name,
		net:       net,
		lis:       lis,
		blocks:    map[string][]byte{},
		peerConns: map[string]*peerConn{},
		accepted:  map[transport.Conn]struct{}{},
	}
	go s.serve()
	return s, nil
}

// Name returns the store's registered name.
func (s *Store) Name() string { return s.name }

func (s *Store) serve() {
	for {
		c, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.acceptMu.Lock()
		if s.closed {
			s.acceptMu.Unlock()
			c.Close()
			return
		}
		s.accepted[c] = struct{}{}
		s.acceptMu.Unlock()
		go s.handle(c)
	}
}

func (s *Store) handle(c transport.Conn) {
	defer func() {
		s.acceptMu.Lock()
		delete(s.accepted, c)
		s.acceptMu.Unlock()
		c.Close()
	}()
	for {
		req, err := c.Recv()
		if err != nil {
			return
		}
		if len(req) < 1 {
			return
		}
		cmd, body := req[0], req[1:]
		var resp []byte
		switch cmd {
		case cmdFetch:
			id, _, err := readStr(body)
			if err != nil {
				resp = []byte{statusNotOK}
				break
			}
			s.mu.Lock()
			b, ok := s.blocks[id]
			s.mu.Unlock()
			if !ok {
				resp = []byte{statusNotOK}
				break
			}
			resp = appendBytes([]byte{statusOK}, b)
		case cmdDelete:
			id, _, err := readStr(body)
			if err != nil {
				resp = []byte{statusNotOK}
				break
			}
			s.mu.Lock()
			delete(s.blocks, id)
			s.mu.Unlock()
			resp = []byte{statusOK}
		default:
			resp = []byte{statusNotOK}
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// master issues one request/response against the master service.
func (s *Store) master(req []byte) ([]byte, error) {
	s.masterMu.Lock()
	defer s.masterMu.Unlock()
	if s.masterConn == nil {
		c, err := s.net.Dial(MasterAddr)
		if err != nil {
			return nil, err
		}
		s.masterConn = c
	}
	if err := s.masterConn.Send(req); err != nil {
		return nil, err
	}
	return s.masterConn.Recv()
}

// peer issues one request/response against another store.
func (s *Store) peer(name string, req []byte) ([]byte, error) {
	s.peerMu.Lock()
	pc, ok := s.peerConns[name]
	if !ok {
		pc = &peerConn{}
		s.peerConns[name] = pc
	}
	s.peerMu.Unlock()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	// One redial on failure: a cached conn goes stale when the peer
	// dies, and under elastic membership a replacement may be serving
	// the same store address by the time we retry.
	for attempt := 0; ; attempt++ {
		if pc.conn == nil {
			c, err := s.net.Dial(storeAddr(name))
			if err != nil {
				return nil, err
			}
			pc.conn = c
		}
		resp, err := func() ([]byte, error) {
			if err := pc.conn.Send(req); err != nil {
				return nil, err
			}
			return pc.conn.Recv()
		}()
		if err == nil {
			return resp, nil
		}
		pc.conn.Close()
		pc.conn = nil
		if attempt >= 1 {
			return nil, err
		}
	}
}

// Put stores a block locally and registers its location with the
// master.
func (s *Store) Put(id string, payload []byte) error {
	if inst := s.inst.Load(); inst != nil {
		start := time.Now()
		defer func() {
			inst.putNS.Observe(time.Since(start).Nanoseconds())
			inst.putBytes.Observe(int64(len(payload)))
		}()
	}
	s.mu.Lock()
	s.blocks[id] = payload
	s.mu.Unlock()
	resp, err := s.master(appendStr(appendStr([]byte{cmdPutLoc}, id), s.name))
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != statusOK {
		return fmt.Errorf("blockmanager: master rejected PutLoc(%s)", id)
	}
	return nil
}

// PutLocal stores a block without registering it (used for blocks whose
// location the scheduler already knows, e.g. tree-round outputs).
func (s *Store) PutLocal(id string, payload []byte) {
	if inst := s.inst.Load(); inst != nil {
		start := time.Now()
		defer func() {
			inst.putNS.Observe(time.Since(start).Nanoseconds())
			inst.putBytes.Observe(int64(len(payload)))
		}()
	}
	s.mu.Lock()
	s.blocks[id] = payload
	s.mu.Unlock()
}

// GetLocal returns a locally stored block.
func (s *Store) GetLocal(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[id]
	return b, ok
}

// BlockInfo describes one resident block for introspection.
type BlockInfo struct {
	ID    string `json:"id"`
	Bytes int    `json:"bytes"`
}

// List returns the store's resident blocks sorted by ID — the
// block-manager residency view of /debug/sparker/blocks.
func (s *Store) List() []BlockInfo {
	s.mu.Lock()
	out := make([]BlockInfo, 0, len(s.blocks))
	for id, b := range s.blocks {
		out = append(out, BlockInfo{ID: id, Bytes: len(b)})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delete removes a local block.
func (s *Store) Delete(id string) {
	s.mu.Lock()
	delete(s.blocks, id)
	s.mu.Unlock()
}

// DeletePrefix removes every local block whose id starts with prefix,
// returning how many were removed. Stage cleanup uses it to drop a
// job's tree-round outputs.
func (s *Store) DeletePrefix(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id := range s.blocks {
		if len(id) >= len(prefix) && id[:len(prefix)] == prefix {
			delete(s.blocks, id)
			n++
		}
	}
	return n
}

// FetchFrom retrieves a block directly from the named store.
func (s *Store) FetchFrom(owner, id string) (block []byte, err error) {
	if inst := s.inst.Load(); inst != nil {
		start := time.Now()
		defer func() {
			inst.getNS.Observe(time.Since(start).Nanoseconds())
			if err == nil {
				inst.getBytes.Observe(int64(len(block)))
			}
		}()
	}
	if owner == s.name {
		b, ok := s.GetLocal(id)
		if !ok {
			return nil, fmt.Errorf("blockmanager: block %s not found locally", id)
		}
		return b, nil
	}
	resp, err := s.peer(owner, appendStr([]byte{cmdFetch}, id))
	if err != nil {
		return nil, err
	}
	if len(resp) < 1 || resp[0] != statusOK {
		return nil, fmt.Errorf("blockmanager: block %s not found at %s", id, owner)
	}
	// The response frame is the caller's own — the serving store built it
	// fresh and the transport hands each received frame over — so the
	// block is returned in place.
	b, _, err := readBytes(resp[1:])
	return b, err
}

// Get resolves a block's location through the master, then fetches it.
func (s *Store) Get(id string) ([]byte, error) {
	resp, err := s.master(appendStr([]byte{cmdGetLoc}, id))
	if err != nil {
		return nil, err
	}
	if len(resp) < 1 || resp[0] != statusOK {
		return nil, fmt.Errorf("blockmanager: GetLoc(%s) failed", id)
	}
	owner, _, err := readStr(resp[1:])
	if err != nil {
		return nil, err
	}
	if owner == "" {
		return nil, fmt.Errorf("blockmanager: block %s unknown to master", id)
	}
	return s.FetchFrom(owner, id)
}

// --- BlockManager-based message passing (the slow baseline) -----------

// SendMessage delivers payload to the store named dst through the block
// machinery: local put + master PutLoc + master Enqueue. This is the
// "adapted Spark BlockManager into a communication library" baseline of
// §4.1/Figure 12.
func (s *Store) SendMessage(dst string, payload []byte) error {
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("msg/%s/%d", s.name, s.seq)
	s.mu.Unlock()
	if err := s.Put(id, payload); err != nil {
		return err
	}
	resp, err := s.master(appendStr(appendStr([]byte{cmdEnqueue}, dst), id))
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != statusOK {
		return fmt.Errorf("blockmanager: enqueue to %s failed", dst)
	}
	return nil
}

// RecvMessage blocks (polling the master) until a message addressed to
// this store arrives, fetches it from the owner, and cleans it up.
func (s *Store) RecvMessage() ([]byte, error) {
	backoff := 50 * time.Microsecond
	for {
		resp, err := s.master(appendStr([]byte{cmdDequeue}, s.name))
		if err != nil {
			return nil, err
		}
		if len(resp) < 1 || resp[0] != statusOK {
			return nil, fmt.Errorf("blockmanager: dequeue failed")
		}
		id, _, err := readStr(resp[1:])
		if err != nil {
			return nil, err
		}
		if id == "" {
			time.Sleep(backoff)
			if backoff < 2*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		// Resolve and fetch.
		payload, err := s.Get(id)
		if err != nil {
			return nil, err
		}
		// Clean up: remove from owner and master.
		locResp, err := s.master(appendStr([]byte{cmdGetLoc}, id))
		if err == nil && len(locResp) >= 1 && locResp[0] == statusOK {
			if owner, _, err := readStr(locResp[1:]); err == nil && owner != "" && owner != s.name {
				s.peer(owner, appendStr([]byte{cmdDelete}, id))
			}
		}
		s.master(appendStr([]byte{cmdRemove}, id))
		return payload, nil
	}
}

// Close stops the store's server.
func (s *Store) Close() error {
	s.masterMu.Lock()
	if s.masterConn != nil {
		s.masterConn.Close()
		s.masterConn = nil
	}
	s.masterMu.Unlock()
	s.peerMu.Lock()
	for _, pc := range s.peerConns {
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close()
		}
		pc.mu.Unlock()
	}
	s.peerConns = map[string]*peerConn{}
	s.peerMu.Unlock()
	s.acceptMu.Lock()
	s.closed = true
	for c := range s.accepted {
		c.Close()
	}
	s.accepted = map[transport.Conn]struct{}{}
	s.acceptMu.Unlock()
	return s.lis.Close()
}
