package nkchan

import (
	"testing"

	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

func TestNewPairDefaults(t *testing.T) {
	p, err := NewPair(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.ChunkSize() != 8<<10 {
		t.Fatalf("ChunkSize = %d, want 8KB default", p.ChunkSize())
	}
	// The paper's 40 huge pages of 256 chunks each, and nothing else.
	if p.Pages.Pages() != shm.DefaultPageCount || p.Pages.Chunks() != 10240 {
		t.Fatalf("%d pages of %d chunks, want 40 pages of 10 240", p.Pages.Pages(), p.Pages.Chunks())
	}
	// Backed in 64 KiB units of 8 chunks, none of them yet.
	if p.Pages.Units() != 1280 || p.Pages.UnitSize() != shm.UnitSize {
		t.Fatalf("%d units of %d bytes, want 1 280 of %d", p.Pages.Units(), p.Pages.UnitSize(), shm.UnitSize)
	}
	if p.Pages.FreeCount() != 10240 || p.Pages.Resident() != 0 {
		t.Fatalf("a new pair has %d free chunks and %d resident units, want 10 240 and 0", p.Pages.FreeCount(), p.Pages.Resident())
	}
	// One queue depth of ring slots, in 1 KiB segments none of which a
	// ring holds yet.
	if p.Reserve.Bytes() != nkqueue.DefaultSlots*nqe.Size || p.Reserve.Held() != 0 {
		t.Fatalf("a new pair's reserve has %d bytes with %d segments held, want %d and 0",
			p.Reserve.Bytes(), p.Reserve.Held(), nkqueue.DefaultSlots*nqe.Size)
	}
	// All six queues usable.
	e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM}
	for i, q := range []*nkqueue.Queue{p.VMJob, p.VMCompletion, p.VMReceive, p.NSMJob, p.NSMCompletion, p.NSMReceive} {
		if !q.Push(&e) {
			t.Fatalf("queue %d push failed", i)
		}
		var out nqe.Element
		if !q.Pop(&out) || out.Op != nqe.OpSend {
			t.Fatalf("queue %d pop failed", i)
		}
	}
	// Each ring keeps the one segment it has drained, for its next push.
	if n := p.Reserve.Held(); n != 6 {
		t.Fatalf("six drained queues hold %d segments, want 6", n)
	}

	// Slots is per ring on every shard: an explicit depth, or DefaultSlots
	// when left at 0.
	for slots, want := range map[int]int{4: 4, 0: nkqueue.DefaultSlots} {
		p, err := NewPair(Config{Shards: 4, Queue: nkqueue.Config{Slots: slots}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Shards) != 4 {
			t.Fatalf("%d shards built, want 4", len(p.Shards))
		}
		for si, r := range p.Shards {
			for qi, q := range []*nkqueue.Queue{r.VMJob, r.VMCompletion, r.VMReceive, r.NSMJob, r.NSMCompletion, r.NSMReceive} {
				if q.Cap() != want {
					t.Errorf("Slots %d: shard %d queue %d holds %d slots, want %d", slots, si, qi, q.Cap(), want)
				}
			}
		}
	}
}

func TestNewPairPriorityQueues(t *testing.T) {
	p, err := NewPair(Config{Queue: nkqueue.Config{Priority: true, Slots: 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn := nqe.Element{Op: nqe.OpConnect, Source: nqe.FromVM}
	data := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM}
	p.VMJob.Push(&data)
	p.VMJob.Push(&conn)
	var out nqe.Element
	p.VMJob.Pop(&out)
	if out.Op != nqe.OpConnect {
		t.Fatal("priority pair did not prioritize the connection event")
	}
}

func TestNewPairBadConfig(t *testing.T) {
	if _, err := NewPair(Config{Queue: nkqueue.Config{Slots: 3}}, nil); err == nil {
		t.Fatal("bad slot count accepted")
	}
}

// Pairs never see each other's data, whether each has a private pool or
// both carve their units from one host's page.
func TestPairIsolation(t *testing.T) {
	shared := shm.NewPool()
	for _, pools := range [][2]*shm.Pool{{nil, nil}, {shared, shared}} {
		a, _ := NewPair(Config{}, pools[0])
		b, _ := NewPair(Config{}, pools[1])
		ca, _ := a.Pages.Alloc()
		a.Pages.Write(ca, []byte("tenant-a"))
		cb, _ := b.Pages.Alloc()
		buf := make([]byte, 8)
		b.Pages.Read(cb, buf, 8)
		if string(buf) == "tenant-a" {
			t.Fatalf("pairs share huge pages (shared pool %v)", pools[0] != nil)
		}
	}
	if n := shared.Pages(); n != 1 {
		t.Fatalf("two pairs with one unit each took %d pages of their pool, want 1", n)
	}
}
