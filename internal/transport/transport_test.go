package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// networks under test, constructed fresh per subtest.
func networks() map[string]func() Network {
	return map[string]func() Network{
		"mem": func() Network { return NewMem() },
		"tcp": func() Network { return NewTCP() },
	}
}

func TestEcho(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			l, err := n.Listen("srv")
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				for {
					b, err := c.Recv()
					if err != nil {
						return
					}
					c.Send(b)
				}
			}()
			c, err := n.Dial("srv")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				msg := []byte(fmt.Sprintf("message-%d", i))
				if err := c.Send(append([]byte(nil), msg...)); err != nil {
					t.Fatal(err)
				}
				got, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("echo %d: got %q want %q", i, got, msg)
				}
			}
		})
	}
}

func TestOrderingUnderLoad(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			l, _ := n.Listen("srv")
			const msgs = 2000
			done := make(chan error, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					done <- err
					return
				}
				for i := 0; i < msgs; i++ {
					b, err := c.Recv()
					if err != nil {
						done <- fmt.Errorf("recv %d: %w", i, err)
						return
					}
					if want := fmt.Sprintf("%08d", i); string(b) != want {
						done <- fmt.Errorf("out of order: got %q want %q", b, want)
						return
					}
				}
				done <- nil
			}()
			c, err := n.Dial("srv")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < msgs; i++ {
				if err := c.Send([]byte(fmt.Sprintf("%08d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDialUnknownAddr(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if _, err := n.Dial("nobody"); err == nil {
				t.Fatal("Dial of unknown addr should fail")
			}
		})
	}
}

func TestDuplicateListen(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if _, err := n.Listen("a"); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Listen("a"); err == nil {
				t.Fatal("duplicate Listen should fail")
			}
		})
	}
}

func TestLargeMessage(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			l, _ := n.Listen("srv")
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				b, err := c.Recv()
				if err != nil {
					return
				}
				c.Send(b)
			}()
			c, err := n.Dial("srv")
			if err != nil {
				t.Fatal(err)
			}
			big := make([]byte, 4<<20)
			for i := range big {
				big[i] = byte(i * 31)
			}
			want := append([]byte(nil), big...)
			if err := c.Send(big); err != nil {
				t.Fatal(err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("large message corrupted in transit")
			}
		})
	}
}

func TestMemCloseUnblocksRecv(t *testing.T) {
	n := NewMem()
	defer n.Close()
	l, _ := n.Listen("srv")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	errc := make(chan error, 1)
	go func() {
		_, err := srv.Recv()
		errc <- err
	}()
	time.Sleep(time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("Recv after peer close: got %v want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after peer Close")
	}
}

func TestMemDrainAfterClose(t *testing.T) {
	n := NewMem()
	defer n.Close()
	l, _ := n.Listen("srv")
	accepted := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	if err := c.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	got, err := srv.Recv()
	if err != nil {
		t.Fatalf("Recv of queued message after close: %v", err)
	}
	if string(got) != "queued" {
		t.Fatalf("got %q", got)
	}
	if _, err := srv.Recv(); err != ErrClosed {
		t.Fatalf("second Recv: got %v want ErrClosed", err)
	}
}

func TestMemShapeDelaysDelivery(t *testing.T) {
	n := NewMemShaped(Shape{Latency: 20 * time.Millisecond})
	defer n.Close()
	l, _ := n.Listen("srv")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		b, _ := c.Recv()
		c.Send(b)
	}()
	c, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.Send([]byte("x"))
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	// Round trip crosses two shaped hops.
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("round trip %v, want >= 40ms with 20ms per-hop latency", d)
	}
}

func TestConcurrentConns(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			l, _ := n.Listen("srv")
			go func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					go func(c Conn) {
						for {
							b, err := c.Recv()
							if err != nil {
								return
							}
							c.Send(b)
						}
					}(c)
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c, err := n.Dial("srv")
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					for i := 0; i < 100; i++ {
						msg := fmt.Sprintf("g%d-m%d", g, i)
						if err := c.Send([]byte(msg)); err != nil {
							t.Errorf("send: %v", err)
							return
						}
						got, err := c.Recv()
						if err != nil {
							t.Errorf("recv: %v", err)
							return
						}
						if string(got) != msg {
							t.Errorf("got %q want %q", got, msg)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	l, _ := n.Listen("srv")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	errc := make(chan error, 1)
	go func() {
		_, err := srv.Recv()
		errc <- err
	}()
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Recv returned no error after peer close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after TCP peer close")
	}
}

func TestListenerAddrAndClose(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			l, err := n.Listen("a")
			if err != nil {
				t.Fatal(err)
			}
			if l.Addr() != "a" {
				t.Fatalf("Addr = %q", l.Addr())
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// The address is free again after Close.
			if _, err := n.Listen("a"); err != nil {
				t.Fatalf("re-Listen after Close: %v", err)
			}
			// Dial of a closed-then-reopened address succeeds; dial of a
			// never-opened one still fails.
			if _, err := n.Dial("never"); err == nil {
				t.Fatal("Dial of unknown addr should fail")
			}
		})
	}
}

func TestNetworkCloseStopsDialAndListen(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			if _, err := n.Listen("x"); err != nil {
				t.Fatal(err)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Listen("y"); err == nil {
				t.Fatal("Listen after network Close should fail")
			}
			if _, err := n.Dial("x"); err == nil {
				t.Fatal("Dial after network Close should fail")
			}
		})
	}
}

// TestTCPRecvBoundsLengthPrefix: Recv must not believe a length prefix
// over MaxFrameBytes. One corrupt 4-byte header used to draw a 4 GiB
// buffer and then wait for bytes that never come; now it is a classified
// error at once, and the connection — whose framing is lost — is closed.
func TestTCPRecvBoundsLengthPrefix(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	l, err := n.Listen("victim")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", n.directory["victim"])
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := raw.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("Recv of a 0xFFFFFFFF length prefix: %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still waiting for the 4 GiB a corrupt prefix promised")
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection left open after a corrupt prefix (read: %v)", err)
	}
}
