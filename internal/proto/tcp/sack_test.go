package tcp

import (
	"reflect"
	"testing"

	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

// referenceSACKBlocks is the block selection as it was written before the
// blocks moved into the header by value: coalesce the queue into a list of
// runs, report the newest first, rotate through the rest. Kept as the
// oracle for fillSACK, which must choose the same blocks without building
// the list.
func referenceSACKBlocks(c *Conn) []SACKBlock {
	if !c.sackOK || len(c.ooo) == 0 {
		return nil
	}
	var runs []SACKBlock
	newestRun := 0
	for _, s := range c.ooo {
		start, end := s.seq, s.seq+uint32(len(s.data))
		if n := len(runs); n > 0 && runs[n-1].End == start {
			runs[n-1].End = end
		} else {
			runs = append(runs, SACKBlock{Start: start, End: end})
		}
		if seqLEQ(runs[len(runs)-1].Start, c.lastOOOSeq) && seqLT(c.lastOOOSeq, runs[len(runs)-1].End) {
			newestRun = len(runs) - 1
		}
	}
	blocks := make([]SACKBlock, 0, MaxSACKBlocks)
	blocks = append(blocks, runs[newestRun])
	for i := 1; i < len(runs) && len(blocks) < MaxSACKBlocks; i++ {
		idx := (newestRun + int(c.sackRotate) + i) % len(runs)
		if idx == newestRun {
			continue
		}
		blocks = append(blocks, runs[idx])
	}
	c.sackRotate++
	return blocks
}

func sackReceiver(tb testing.TB) *Conn {
	c := Dial(Config{
		Clock: sim.NewLoop(), RNG: sim.NewRNG(1), CC: mustCC(tb, "reno"),
		Local:  AddrPort{Addr: ipv4.Addr{10, 0, 0, 1}, Port: 40000},
		Remote: AddrPort{Addr: ipv4.Addr{10, 0, 0, 2}, Port: 80},
		Output: func(*Header, []byte, bool) {},
	})
	c.sackOK = true
	return c
}

// Random out-of-order queues — one to a dozen runs of one to four
// abutting segments, sequence space wrapping included — with the newest
// arrival anywhere (or nowhere) and every rotation phase: fillSACK picks
// the blocks the reference picks, in the same order, and advances the
// rotation the same way.
func TestFillSACKMatchesReference(t *testing.T) {
	rng := sim.NewRNG(99)
	c := sackReceiver(t)
	for trial := 0; trial < 2000; trial++ {
		c.ooo = c.ooo[:0]
		seq := uint32(rng.Uint64())
		if trial%5 == 0 {
			seq = ^uint32(0) - uint32(rng.Intn(4000)) // runs that straddle the wrap
		}
		for runs := 1 + rng.Intn(12); runs > 0; runs-- {
			seq += 1 + uint32(rng.Intn(3000)) // a hole
			for segs := 1 + rng.Intn(4); segs > 0; segs-- {
				n := 1 + rng.Intn(1460)
				c.ooo = append(c.ooo, oooSeg{seq: seq, data: make([]byte, n)})
				seq += uint32(n)
			}
		}
		c.lastOOOSeq = c.ooo[rng.Intn(len(c.ooo))].seq
		if trial%7 == 0 {
			c.lastOOOSeq = seq + 5000 // stale: in no run
		}
		c.sackRotate = uint32(rng.Intn(40))
		rot := c.sackRotate

		want := referenceSACKBlocks(c)
		c.sackRotate = rot
		var o Options
		c.fillSACK(&o)
		if !reflect.DeepEqual(o.SACKBlocks(), want) {
			t.Fatalf("trial %d: %d segments, rotate %d: fillSACK %+v, reference %+v", trial, len(c.ooo), rot, o.SACKBlocks(), want)
		}
		if c.sackRotate != rot+1 {
			t.Fatalf("trial %d: rotation %d -> %d, want +1", trial, rot, c.sackRotate)
		}
	}

	if n := testing.AllocsPerRun(100, func() {
		var o Options
		c.fillSACK(&o)
	}); n != 0 {
		t.Errorf("fillSACK: %v allocs, want 0", n)
	}

	// Nothing out of order, or SACK not negotiated: no blocks, no rotation.
	c.ooo, c.sackRotate = nil, 3
	var o Options
	c.fillSACK(&o)
	c.ooo, c.sackOK = []oooSeg{{seq: 1, data: make([]byte, 10)}}, false
	c.fillSACK(&o)
	if o.NumSACK != 0 || c.sackRotate != 3 {
		t.Fatalf("blocks %d, rotation %d on a connection with nothing to report", o.NumSACK, c.sackRotate)
	}
}

// A Header holds no pointers: a by-value copy taken inside Output stays
// intact when the connection reuses its scratch header for the next
// segment.
func TestHeaderCopyIsDeep(t *testing.T) {
	var kept []Header
	c := Dial(Config{
		Clock: sim.NewLoop(), RNG: sim.NewRNG(1), CC: mustCC(t, "reno"),
		Local:  AddrPort{Addr: ipv4.Addr{10, 0, 0, 1}, Port: 40000},
		Remote: AddrPort{Addr: ipv4.Addr{10, 0, 0, 2}, Port: 80},
		Output: func(h *Header, _ []byte, _ bool) { kept = append(kept, *h) },
	})
	c.Input(&Header{Flags: FlagSYN | FlagACK, Seq: 5000, Ack: c.iss + 1, Window: 65535,
		Opts: Options{MSS: 1000, SACKPermitted: true}}, nil, false)
	// Two holes, then the ACKs that report them.
	c.Input(&Header{Flags: FlagACK, Seq: 5001 + 1000, Ack: c.sndNxt, Window: 65535}, make([]byte, 500), false)
	c.Input(&Header{Flags: FlagACK, Seq: 5001 + 3000, Ack: c.sndNxt, Window: 65535}, make([]byte, 500), false)
	c.Write(make([]byte, 100))
	if len(kept) != 5 {
		t.Fatalf("%d segments out, want SYN, ACK, two SACKs and data", len(kept))
	}
	syn, sack1, sack2, data := kept[0], kept[2], kept[3], kept[4]
	if syn.Flags != FlagSYN || syn.Opts.MSS == 0 || !syn.Opts.SACKPermitted {
		t.Errorf("kept SYN was overwritten: %+v", syn)
	}
	if got := sack1.Opts.SACKBlocks(); len(got) != 1 || got[0] != (SACKBlock{Start: 6001, End: 6501}) {
		t.Errorf("first SACK = %+v", got)
	}
	if got := sack2.Opts.SACKBlocks(); len(got) == 0 || got[0] != (SACKBlock{Start: 8001, End: 8501}) {
		t.Errorf("second SACK = %+v", got)
	}
	if data.Opts.NumSACK != 0 || data.Opts.MSS != 0 || data.Flags&FlagSYN != 0 {
		t.Errorf("data segment inherited stale scratch fields: %+v", data)
	}
}
