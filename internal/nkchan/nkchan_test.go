package nkchan

import (
	"testing"

	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

func TestNewPairDefaults(t *testing.T) {
	p, err := NewPair(Config{})
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
	if p.Pages.FreeCount() != 10240 || p.Pages.Resident() != 0 {
		t.Fatalf("a new pair has %d free chunks and %d resident pages, want 10 240 and 0", p.Pages.FreeCount(), p.Pages.Resident())
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
}

func TestNewPairPriorityQueues(t *testing.T) {
	p, err := NewPair(Config{Queue: nkqueue.Config{Priority: true, Slots: 8}})
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
	if _, err := NewPair(Config{Queue: nkqueue.Config{Slots: 3}}); err == nil {
		t.Fatal("bad slot count accepted")
	}
	if _, err := NewPair(Config{ChunkSize: 3000}); err == nil {
		t.Fatal("chunk size not dividing the page accepted")
	}
}

func TestPairIsolation(t *testing.T) {
	a, _ := NewPair(Config{})
	b, _ := NewPair(Config{})
	ca, _ := a.Pages.Alloc()
	a.Pages.Write(ca, []byte("tenant-a"))
	cb, _ := b.Pages.Alloc()
	buf := make([]byte, 8)
	b.Pages.Read(cb, buf, 8)
	if string(buf) == "tenant-a" {
		t.Fatal("pairs share huge pages")
	}
}
