package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCPNetwork is a Network over real sockets (loopback by default).
// Logical Addrs map to host:port strings assigned at Listen time; Dial
// resolves them through a shared directory, so the rest of the stack
// can keep using stable logical names like "executor-3".
type TCPNetwork struct {
	mu        sync.Mutex
	directory map[Addr]string // logical addr -> host:port
	listeners []*tcpListener
	closed    bool
}

// NewTCP returns an empty TCP network directory.
func NewTCP() *TCPNetwork {
	return &TCPNetwork{directory: map[Addr]string{}}
}

// Listen implements Network. It binds an OS-assigned loopback port and
// registers it under addr.
func (n *TCPNetwork) Listen(addr Addr) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.directory[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.directory[addr] = nl.Addr().String()
	l := &tcpListener{net: n, addr: addr, nl: nl}
	n.listeners = append(n.listeners, l)
	return l, nil
}

// Dial implements Network.
func (n *TCPNetwork) Dial(addr Addr) (Conn, error) {
	n.mu.Lock()
	target, ok := n.directory[addr]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	c, err := net.Dial("tcp", target)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// Close implements Network.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for _, l := range n.listeners {
		l.nl.Close()
	}
	n.listeners = nil
	n.directory = map[Addr]string{}
	return nil
}

type tcpListener struct {
	net  *TCPNetwork
	addr Addr
	nl   net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Addr() Addr { return l.addr }

func (l *tcpListener) Close() error {
	l.net.mu.Lock()
	delete(l.net.directory, l.addr)
	l.net.mu.Unlock()
	return l.nl.Close()
}

// MaxFrameBytes is the largest message a TCP connection carries. The
// engine's largest frames are whole aggregators and cached blocks, tens
// of megabytes; the bound is what stops a corrupt length prefix from
// drawing gigabytes before a single payload byte has arrived.
const MaxFrameBytes = 1 << 30

// ErrFrameTooLarge is returned by Send for a message over MaxFrameBytes
// and by Recv for a length prefix claiming one; Recv also closes the
// connection, whose byte stream can no longer be trusted.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameBytes")

// tcpConn frames messages with a 4-byte little-endian length prefix.
type tcpConn struct {
	c  net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
	mu sync.Mutex // guards w
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{
		c: c,
		r: bufio.NewReaderSize(c, 1<<16),
		w: bufio.NewWriterSize(c, 1<<16),
	}
}

func (t *tcpConn) Send(b []byte) error {
	if len(b) > MaxFrameBytes {
		return fmt.Errorf("%w: sending %d bytes", ErrFrameTooLarge, len(b))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := t.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	return t.w.Flush()
}

func (t *tcpConn) Recv() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		t.c.Close()
		return nil, fmt.Errorf("%w: length prefix claims %d bytes", ErrFrameTooLarge, n)
	}
	buf := GetBuf(int(n))
	if _, err := io.ReadFull(t.r, buf); err != nil {
		PutBuf(buf)
		return nil, err
	}
	return buf, nil
}

// SendRetainsBuffer implements SendRetainer: Send flushes the bytes
// into the socket before returning, so the caller's buffer is free for
// reuse (the comm layer recycles it through the pool).
func (t *tcpConn) SendRetainsBuffer() bool { return false }

func (t *tcpConn) Close() error { return t.c.Close() }
