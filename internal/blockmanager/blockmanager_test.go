package blockmanager

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sparker/internal/transport"
)

func setup(t *testing.T, stores int) (*Master, []*Store, func()) {
	t.Helper()
	return setupOn(t, transport.NewMem(), stores)
}

// setupOn is setup over net.
func setupOn(t *testing.T, net transport.Network, stores int) (*Master, []*Store, func()) {
	t.Helper()
	m, err := NewMaster(net)
	if err != nil {
		t.Fatal(err)
	}
	ss := make([]*Store, stores)
	for i := range ss {
		s, err := NewStore(net, fmt.Sprintf("exec-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	return m, ss, func() {
		for _, s := range ss {
			s.Close()
		}
		m.Close()
		net.Close()
	}
}

func TestPutGetLocal(t *testing.T) {
	_, ss, done := setup(t, 1)
	defer done()
	s := ss[0]
	if err := s.Put("a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b, ok := s.GetLocal("a")
	if !ok || string(b) != "payload" {
		t.Fatalf("GetLocal = %q, %v", b, ok)
	}
	s.Delete("a")
	if _, ok := s.GetLocal("a"); ok {
		t.Fatal("block survived Delete")
	}
}

func TestRemoteGetViaMaster(t *testing.T) {
	_, ss, done := setup(t, 3)
	defer done()
	if err := ss[2].Put("big-block", []byte{9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	got, err := ss[0].Get("big-block")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("Get = %v", got)
	}
}

func TestGetUnknownBlock(t *testing.T) {
	_, ss, done := setup(t, 1)
	defer done()
	if _, err := ss[0].Get("missing"); err == nil {
		t.Fatal("Get of unknown block should fail")
	}
}

func TestFetchFromDirect(t *testing.T) {
	_, ss, done := setup(t, 2)
	defer done()
	ss[1].PutLocal("shuffle/0/1", []byte("segment"))
	got, err := ss[0].FetchFrom("exec-1", "shuffle/0/1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "segment" {
		t.Fatalf("FetchFrom = %q", got)
	}
	// Missing block reports an error, not a hang.
	if _, err := ss[0].FetchFrom("exec-1", "nope"); err == nil {
		t.Fatal("FetchFrom missing block should fail")
	}
	// Local fast path.
	ss[0].PutLocal("local", []byte("x"))
	if got, err := ss[0].FetchFrom("exec-0", "local"); err != nil || string(got) != "x" {
		t.Fatalf("local FetchFrom = %q, %v", got, err)
	}
}

// TestFetchedBlockIsPrivate: FetchFrom returns the fetched block in
// place in the response frame, which is only sound if that frame is
// memory the owner does not hold. Writing over a fetched block must
// leave the owner's stored block, and the next fetch, as they were — on
// the in-memory transport and on TCP.
func TestFetchedBlockIsPrivate(t *testing.T) {
	for name, net := range map[string]transport.Network{"mem": transport.NewMem(), "tcp": transport.NewTCP()} {
		t.Run(name, func(t *testing.T) {
			_, ss, done := setupOn(t, net, 2)
			defer done()
			want := []byte("resident block")
			ss[1].PutLocal("blk", bytes.Clone(want))
			for round := 0; round < 2; round++ {
				got, err := ss[0].FetchFrom("exec-1", "blk")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("fetch %d = %q, want %q", round, got, want)
				}
				for i := range got {
					got[i] = 0
				}
				if stored, _ := ss[1].GetLocal("blk"); !bytes.Equal(stored, want) {
					t.Fatalf("writing a fetched block changed the owner's copy to %q", stored)
				}
			}
		})
	}
}

func TestMessaging(t *testing.T) {
	_, ss, done := setup(t, 2)
	defer done()
	const msgs = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if err := ss[0].SendMessage("exec-1", []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			b, err := ss[1].RecvMessage()
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if want := fmt.Sprintf("m%d", i); string(b) != want {
				t.Errorf("message %d: got %q want %q", i, b, want)
				return
			}
		}
	}()
	wg.Wait()
}

func TestMessagingCleansUp(t *testing.T) {
	_, ss, done := setup(t, 2)
	defer done()
	if err := ss[0].SendMessage("exec-1", []byte("once")); err != nil {
		t.Fatal(err)
	}
	if _, err := ss[1].RecvMessage(); err != nil {
		t.Fatal(err)
	}
	// The block must be gone from the sender and from the master.
	ss[0].mu.Lock()
	n := len(ss[0].blocks)
	ss[0].mu.Unlock()
	if n != 0 {
		t.Errorf("sender still holds %d blocks after delivery", n)
	}
}

func TestPingPongLatencyPath(t *testing.T) {
	// A full round trip through the BM messaging path exercises every
	// protocol hop used by the Figure-12 baseline measurement.
	_, ss, done := setup(t, 2)
	defer done()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b, err := ss[1].RecvMessage()
		if err != nil {
			t.Error(err)
			return
		}
		if err := ss[1].SendMessage("exec-0", b); err != nil {
			t.Error(err)
		}
	}()
	if err := ss[0].SendMessage("exec-1", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := ss[0].RecvMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("pong = %q", got)
	}
	wg.Wait()
}

func TestConcurrentPutsAndGets(t *testing.T) {
	_, ss, done := setup(t, 4)
	defer done()
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *Store) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				id := fmt.Sprintf("b/%d/%d", i, j)
				if err := s.Put(id, []byte(id)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	// Every store can read every block.
	for _, s := range ss {
		for i := range ss {
			id := fmt.Sprintf("b/%d/%d", i, 13)
			b, err := s.Get(id)
			if err != nil {
				t.Fatalf("%s Get(%s): %v", s.Name(), id, err)
			}
			if string(b) != id {
				t.Fatalf("Get(%s) = %q", id, b)
			}
		}
	}
}

func TestDeletePrefixAndName(t *testing.T) {
	_, ss, done := setup(t, 1)
	defer done()
	s := ss[0]
	if s.Name() != "exec-0" {
		t.Fatalf("Name = %q", s.Name())
	}
	s.PutLocal("agg/1/a", []byte{1})
	s.PutLocal("agg/1/b", []byte{2})
	s.PutLocal("agg/2/a", []byte{3})
	if n := s.DeletePrefix("agg/1/"); n != 2 {
		t.Fatalf("DeletePrefix removed %d, want 2", n)
	}
	if _, ok := s.GetLocal("agg/1/a"); ok {
		t.Fatal("prefixed block survived")
	}
	if _, ok := s.GetLocal("agg/2/a"); !ok {
		t.Fatal("unrelated block removed")
	}
	if n := s.DeletePrefix("nothing/"); n != 0 {
		t.Fatalf("empty DeletePrefix removed %d", n)
	}
}
