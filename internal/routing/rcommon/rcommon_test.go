package rcommon

import (
	"testing"
	"time"

	"slr/internal/sim"
)

func TestDropVocabulary(t *testing.T) {
	for _, r := range DropReasons {
		if !KnownDropReason(r) {
			t.Errorf("listed reason %q not recognized", r)
		}
	}
	for _, bad := range []string{"", "rreq-queue-full", "no route", "NO-ROUTE"} {
		if KnownDropReason(bad) {
			t.Errorf("reason %q should be unknown", bad)
		}
	}
}

func TestRateLimiterWindow(t *testing.T) {
	rl := RateLimiter{Cap: 2}
	now := sim.Time(0)
	if !rl.Allow(now) || !rl.Allow(now) {
		t.Fatal("first two events must pass")
	}
	if rl.Allow(now + 500*time.Millisecond) {
		t.Fatal("third event inside the window must be rejected")
	}
	if !rl.Allow(now + time.Second) {
		t.Fatal("event after the window must pass")
	}
	unlimited := RateLimiter{}
	for i := 0; i < 100; i++ {
		if !unlimited.Allow(0) {
			t.Fatal("non-positive cap must disable the limiter")
		}
	}
}

func TestDupCache(t *testing.T) {
	c := NewDupCache(30 * time.Second)
	if !c.Witness(1, 7, 0) {
		t.Fatal("first sighting must be new")
	}
	if c.Witness(1, 7, time.Second) {
		t.Fatal("repeat sighting inside retention must be suppressed")
	}
	c.Mark(2, 9, 0)
	if c.Witness(2, 9, time.Second) {
		t.Fatal("marked flood must read as seen")
	}
	c.Sweep(31 * time.Second)
	if c.Len() != 0 {
		t.Fatalf("sweep left %d entries", c.Len())
	}
	if !c.Witness(1, 7, 31*time.Second) {
		t.Fatal("sighting after retention must be new again")
	}
}

func TestNeighborTableLiveness(t *testing.T) {
	nt := NewNeighborTable()
	nb := nt.Touch(3, 6*time.Second)
	nb.Sym = true
	if got, ok := nt.Get(3); !ok || got != nb {
		t.Fatal("Touch must create and return the entry")
	}
	if same := nt.Touch(3, 8*time.Second); same != nb {
		t.Fatal("Touch must reuse the existing entry")
	}
	if nb.Expiry != 8*time.Second {
		t.Fatalf("Touch did not extend liveness: %v", nb.Expiry)
	}
	if nt.Expire(3 * time.Second) {
		t.Fatal("a sweep before every deadline must remove nothing")
	}
	if nt.Expire(3 * time.Second) {
		t.Fatal("second expire at the same instant must be a no-op")
	}
	if !nt.Expire(9*time.Second) || nt.Len() != 0 {
		t.Fatal("hello-silent neighbor must age out")
	}
	if nt.Remove(3) {
		t.Fatal("removing an absent neighbor must report false")
	}
	nt.Touch(5, time.Second)
	if !nt.Remove(5) || nt.Len() != 0 {
		t.Fatal("link-layer removal must drop the entry immediately")
	}

	// A deadline written after a sweep has raised the horizon must lower
	// it again; the early return would otherwise hide its expiry from the
	// next sweep.
	nt.Touch(6, 20*time.Second)
	if nt.Expire(2 * time.Second) {
		t.Fatal("nothing should expire at 2s")
	}
	nt.Touch(7, 10*time.Second)
	if !nt.Expire(11*time.Second) || nt.Len() != 1 {
		t.Fatal("a deadline below the swept horizon must expire once due")
	}
	if _, ok := nt.Get(6); !ok {
		t.Fatal("a live neighbor must survive the sweep")
	}
}

func TestSeqWraparound(t *testing.T) {
	if !SeqGT(1, 0) || SeqGT(0, 1) || !SeqGE(1, 1) {
		t.Fatal("basic ordering broken")
	}
	// Freshness survives rollover: 3 is fresher than MaxUint32-2.
	if !SeqGT(3, ^uint32(0)-2) {
		t.Fatal("wraparound comparison broken")
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(2.5) != 2500*time.Millisecond {
		t.Fatalf("Seconds(2.5) = %v", Seconds(2.5))
	}
}
