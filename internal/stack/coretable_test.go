package stack

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"netkernel/internal/netsim"
	"netkernel/internal/sim"
)

// coreOracle runs every get and put against the table and a map, and
// fails the test the first time they disagree.
type coreOracle struct {
	t   *testing.T
	tab coreTable
	m   map[uint32]int32
}

func (o *coreOracle) get(key uint32) {
	o.t.Helper()
	core, ok := o.tab.get(key)
	want, wantOK := o.m[key]
	if ok != wantOK || (ok && int32(core) != want) {
		o.t.Fatalf("get(%#x) at %d entries = %d, %v; the map has %d, %v", key, len(o.m), core, ok, want, wantOK)
	}
}

func (o *coreOracle) put(key uint32, core uint8) {
	o.t.Helper()
	// Check every entry on both sides of each growth.
	grows := (o.tab.size()+1)*8 > len(o.tab.groups)*coreGroupSlots*7
	if grows {
		o.all()
	}
	o.tab.put(key, core)
	o.m[key] = int32(core)
	if o.tab.size() != len(o.m) {
		o.t.Fatalf("put(%#x): table holds %d entries, the map %d", key, o.tab.size(), len(o.m))
	}
	if o.tab.size()*8 > len(o.tab.groups)*coreGroupSlots*7 {
		o.t.Fatalf("put(%#x): %d entries in %d groups, load above 7/8", key, o.tab.size(), len(o.tab.groups))
	}
	o.get(key)
	if grows {
		o.all()
	}
}

// all checks every key the map holds.
func (o *coreOracle) all() {
	o.t.Helper()
	for k := range o.m {
		o.get(k)
	}
}

// homedAt returns the first n keys from `from` up whose walk starts at
// group g of the table as it is now sized.
func (o *coreOracle) homedAt(g, n int, from uint32) []uint32 {
	var keys []uint32
	for k := from; len(keys) < n; k++ {
		if home(k, len(o.tab.groups)) == g {
			keys = append(keys, k)
		}
	}
	return keys
}

// The table agrees with a map[uint32]int32 after every get and put: on
// key 0 and the cores 0 and 255, on chains overflowing one group into
// the next (and from the last group around to the first), on random
// keys across every growth up to 40 000 entries.
func TestCoreTableMatchesMap(t *testing.T) {
	if sz := unsafe.Sizeof(coreGroup{}); sz != 64 {
		t.Fatalf("a group is %d bytes, want one 64-byte cache line", sz)
	}
	rng := sim.NewRNG(36)
	o := &coreOracle{t: t, m: map[uint32]int32{}}

	// Key 0 against the zeroed free slots, before and after it is stored.
	o.get(0)
	o.put(1, 0)
	o.get(0)
	o.put(0, 255)
	o.get(0)
	o.put(2, 0)
	o.get(0)

	// More than two groups' worth homed at the last group wrap around to
	// groups 0 and 1; one more than a group's worth homed at group 3
	// spills into group 4. Misses homed at both walk the chains to their
	// end.
	last := len(o.tab.groups) - 1
	for _, spill := range [][2]int{{last, 2*coreGroupSlots + 3}, {3, coreGroupSlots + 1}} {
		keys := o.homedAt(spill[0], spill[1]+4, 3)
		for _, k := range keys[:spill[1]] {
			o.put(k, uint8(rng.Intn(256)))
			for _, q := range keys {
				o.get(q)
			}
		}
	}
	if n := len(o.tab.groups); n != minCoreGroups {
		t.Fatalf("the crafted chains grew the table to %d groups; the chains are laid out for %d", n, minCoreGroups)
	}
	if o.tab.groups[0].n != coreGroupSlots || o.tab.groups[4].n == 0 {
		t.Fatalf("the crafted chains did not overflow: group 0 holds %d, group 4 %d", o.tab.groups[0].n, o.tab.groups[4].n)
	}

	// Random keys up to 40 000 entries, each stored once it has missed,
	// as coreFor stores them.
	for len(o.m) < 40000 {
		k := uint32(rng.Uint64())
		if _, ok := o.m[k]; ok {
			continue
		}
		o.get(k)
		o.put(k, uint8(rng.Intn(256)))
		if len(o.m) == 32770 {
			if b := float64(len(o.tab.groups)*64) / 32770; b > 7 {
				t.Errorf("32 770 entries cost %.2f B each in %d groups, want at most 7", b, len(o.tab.groups))
			}
		}
	}
	o.all()
}

// A CPU wider than a byte's 256 cores cannot be steered round-robin.
func TestSteeringRefusesWideCPU(t *testing.T) {
	loop := sim.NewLoop()
	New(Config{Clock: loop, Name: "ok", CPU: netsim.NewCPU(loop, 256), RoundRobinCores: true})
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted RoundRobinCores on 257 cores")
		}
	}()
	New(Config{Clock: loop, Name: "wide", CPU: netsim.NewCPU(loop, 257), RoundRobinCores: true})
}

func steeredStack() *Stack {
	loop := sim.NewLoop()
	return New(Config{Clock: loop, RNG: sim.NewRNG(1), Name: "a",
		CPU: netsim.NewCPU(loop, 4), PerPacketCost: 470 * time.Nanosecond, RoundRobinCores: true})
}

// A frame of a flow already steered, and the first frame of a flow that
// does not grow the table, allocate nothing.
func TestAllocsCoreFor(t *testing.T) {
	s := steeredStack()
	s.coreFor(1)
	if n := testing.AllocsPerRun(100, func() { s.coreFor(1) }); n != 0 {
		t.Errorf("hit: %v allocs, want 0", n)
	}
	key := uint32(2)
	groups := len(s.flowCore.groups)
	if n := testing.AllocsPerRun(50, func() { s.coreFor(key); key++ }); n != 0 {
		t.Errorf("miss: %v allocs, want 0", n)
	}
	if len(s.flowCore.groups) != groups {
		t.Fatalf("the misses grew the table from %d to %d groups", groups, len(s.flowCore.groups))
	}
}

// coreForHitFlows is the size of each NSM stack's steering history on
// short_flows: its 16 384 ephemeral ports in each direction, plus 2.
const coreForHitFlows = 32770

var sinkCore int

// BenchmarkCoreForHit is one steered frame's lookup of its flow's core in
// a history of coreForHitFlows flows, through coreFor and through the
// map[uint32]int32 the table replaced. The frames come in a seeded random
// order, so neither side's branches learn a cycle: from 16 flows (the
// short_flows clients in flight, whose entries stay cached) or from all
// of them (each lookup a flow last seen long ago).
func BenchmarkCoreForHit(b *testing.B) {
	hashes := make([]uint32, coreForHitFlows)
	rng := sim.NewRNG(1)
	for i := range hashes {
		hashes[i] = uint32(rng.Uint64())
	}
	s := steeredStack()
	m := make(map[uint32]int32)
	for _, h := range hashes {
		m[h] = int32(s.coreFor(h))
	}
	for _, flows := range []int{16, coreForHitFlows} {
		frames := make([]uint32, 1<<16)
		for i := range frames {
			frames[i] = hashes[rng.Intn(flows)]
		}
		b.Run(fmt.Sprintf("table/%d", flows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCore += s.coreFor(frames[i&(len(frames)-1)])
			}
		})
		b.Run(fmt.Sprintf("map/%d", flows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCore += int(m[frames[i&(len(frames)-1)]])
			}
		})
	}
}
