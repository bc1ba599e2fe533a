package membership

import (
	"sync"
	"testing"
)

func TestBootView(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1", "h2"})
	v := r.View()
	if v.Epoch != 1 {
		t.Fatalf("boot epoch = %d, want 1", v.Epoch)
	}
	if v.NumSlots() != 3 || v.NumLive() != 3 {
		t.Fatalf("slots=%d live=%d, want 3/3", v.NumSlots(), v.NumLive())
	}
	for p := 0; p < 12; p++ {
		if got := v.OwnerOf(p); got != p%3 {
			t.Fatalf("OwnerOf(%d) = %d, want %d (full membership must match p %% N)", p, got, p%3)
		}
	}
}

func TestEvictShiftsOwnership(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1", "h2", "h3"})
	v, changed := r.Evict(1, "test")
	if !changed || v.Epoch != 2 {
		t.Fatalf("evict: changed=%v epoch=%d, want true/2", changed, v.Epoch)
	}
	if v.NumLive() != 3 || v.IsLive(1) {
		t.Fatalf("after evict: live=%d isLive(1)=%v", v.NumLive(), v.IsLive(1))
	}
	// Live set {0,2,3}: ownership cycles over survivors only.
	want := []int{0, 2, 3, 0, 2, 3}
	for p, w := range want {
		if got := v.OwnerOf(p); got != w {
			t.Fatalf("OwnerOf(%d) = %d, want %d", p, got, w)
		}
	}
	// Double-evict is a no-op.
	v2, changed2 := r.Evict(1, "again")
	if changed2 || v2.Epoch != v.Epoch {
		t.Fatalf("double evict: changed=%v epoch=%d", changed2, v2.Epoch)
	}
}

func TestJoinAdoptsDeadSlot(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1", "h2"})
	r.Evict(2, "killed")
	id, v := r.Join("h2b")
	if id != 2 {
		t.Fatalf("join assigned slot %d, want adoption of dead slot 2", id)
	}
	if v.Epoch != 3 || v.NumSlots() != 3 || v.NumLive() != 3 {
		t.Fatalf("after adopt: epoch=%d slots=%d live=%d", v.Epoch, v.NumSlots(), v.NumLive())
	}
	if v.Members[2].Incarnation != 2 || v.HostOf(2) != "h2b" {
		t.Fatalf("adopted slot: inc=%d host=%q", v.Members[2].Incarnation, v.HostOf(2))
	}
	// Ownership identical to boot again.
	for p := 0; p < 9; p++ {
		if got := v.OwnerOf(p); got != p%3 {
			t.Fatalf("OwnerOf(%d) = %d after adoption, want %d", p, got, p%3)
		}
	}
}

func TestJoinGrowsTable(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1"})
	id, v := r.Join("h2")
	if id != 2 || v.NumSlots() != 3 || v.NumLive() != 3 {
		t.Fatalf("grow join: id=%d slots=%d live=%d", id, v.NumSlots(), v.NumLive())
	}
	if v.Members[2].Incarnation != 1 {
		t.Fatalf("fresh slot incarnation = %d, want 1", v.Members[2].Incarnation)
	}
}

func TestSubscribeAndHistory(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1"})
	var got []uint64
	r.Subscribe(func(v *View) { got = append(got, v.Epoch) })
	r.Evict(0, "x")
	r.Join("h0b")
	r.Leave(1)
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("subscriber epochs = %v, want [2 3 4]", got)
	}
	h := r.History()
	kinds := make([]string, len(h))
	for i, e := range h {
		kinds[i] = e.Kind
	}
	want := []string{"boot", "evict", "join", "leave"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("history kinds = %v, want %v", kinds, want)
		}
	}
}

func TestViewImmutableUnderConcurrentMutation(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1", "h2", "h3"})
	v1 := r.View()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				r.Evict(i%4, "chaos")
			} else {
				r.Join("hx")
			}
		}(i)
	}
	// Readers against the old snapshot while mutations fly.
	for p := 0; p < 100; p++ {
		if got := v1.OwnerOf(p); got != p%4 {
			t.Fatalf("snapshot OwnerOf(%d) changed to %d", p, got)
		}
	}
	wg.Wait()
	if r.View().Epoch < 2 {
		t.Fatalf("epoch did not advance: %d", r.View().Epoch)
	}
}

func TestOwnerOfEmpty(t *testing.T) {
	if got := OwnerOf(nil, 3); got != -1 {
		t.Fatalf("OwnerOf(empty) = %d, want -1", got)
	}
}

func TestJoinEpochTracksIncarnations(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1"})
	if got := r.View().JoinEpochOf(0); got != 1 {
		t.Fatalf("boot JoinEpoch = %d, want 1", got)
	}
	r.Evict(1, "killed")  // epoch 2
	_, v := r.Join("h1b") // epoch 3, adopts slot 1
	if got := v.JoinEpochOf(1); got != 3 {
		t.Fatalf("adopted slot JoinEpoch = %d, want 3", got)
	}
	if got := v.JoinEpochOf(0); got != 1 {
		t.Fatalf("untouched slot JoinEpoch = %d, want 1", got)
	}
	id, v2 := r.Join("h2") // epoch 4, grows table
	if got := v2.JoinEpochOf(id); got != 4 {
		t.Fatalf("grown slot JoinEpoch = %d, want 4", got)
	}
}

func TestSameIncarnation(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1"})
	a := r.View()
	r.Evict(1, "killed")
	r.Join("h1b") // re-adopts slot 1 with incarnation 2
	b := r.View()
	if !SameIncarnation(a, b, 0) {
		t.Fatal("slot 0 unchanged but SameIncarnation = false")
	}
	// Slot 1 is live in both views, but the occupant changed — it must
	// NOT read as the same incarnation (the coalesced evict+rejoin case).
	if SameIncarnation(a, b, 1) {
		t.Fatal("slot 1 replaced between views but SameIncarnation = true")
	}
	if SameIncarnation(a, b, 7) {
		t.Fatal("out-of-range slot reads as same incarnation")
	}
}

func TestEvictIncarnationGuard(t *testing.T) {
	r := NewRegistry([]string{"h0", "h1"})
	r.Evict(1, "killed")  // epoch 2
	_, v := r.Join("h1b") // epoch 3: slot 1, incarnation 2, JoinEpoch 3
	// A verdict reached against the dead incarnation (JoinEpoch 1) must
	// not evict the replacement.
	if _, changed := r.EvictIncarnation(1, 1, "stale conn died"); changed {
		t.Fatal("EvictIncarnation with stale generation evicted the replacement")
	}
	if !r.View().IsLive(1) {
		t.Fatal("replacement no longer live after stale-generation evict")
	}
	// A verdict against the current incarnation goes through.
	if _, changed := r.EvictIncarnation(1, v.JoinEpochOf(1), "real failure"); !changed {
		t.Fatal("EvictIncarnation with matching generation was refused")
	}
	if r.View().IsLive(1) {
		t.Fatal("slot still live after matching-generation evict")
	}
	// And is idempotent once the slot is dead.
	if _, changed := r.EvictIncarnation(1, v.JoinEpochOf(1), "again"); changed {
		t.Fatal("EvictIncarnation evicted a dead slot")
	}
}
