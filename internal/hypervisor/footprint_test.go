package hypervisor

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/shm"
)

// A VM↔NSM channel's data region backs 64 KiB units on first touch,
// carved from the testbed's huge-page pool, and its rings draw 1 KiB
// segments from one 64 KiB slot reserve (DESIGN.md §17), so a
// many-tenant world costs the simulator the units and segments its
// traffic used, not every tenant's full region, a page per tenant or
// per host, or every ring's depth up front. Eight tenants per host on
// one shared 4-shard NSM each run a few 64 B round trips; each channel
// then backs one unit and one slab of ring slots, and the two hosts one
// page for their sixteen channels.
func TestTenantFootprintIsThePagesTrafficTouches(t *testing.T) {
	const (
		tenants = 8
		rounds  = 50
		msg     = 64
	)
	c := newCluster(t, func(cfg *HostConfig) { cfg.Shards = 4 })
	onHost := func(h *Host, name string, ip ipv4.Addr) []*VM {
		vms := make([]*VM, tenants)
		spec := NSMSpec{Form: FormModule, CC: "cubic", Cores: 4}
		for i := range vms {
			if i > 0 {
				spec = NSMSpec{ShareWith: vms[0].NSM}
			}
			vm, err := h.CreateVM(VMConfig{Name: fmt.Sprintf("%s%d", name, i), IP: ip, Mode: ModeNetKernel, NSM: spec})
			if err != nil {
				t.Fatal(err)
			}
			vms[i] = vm
		}
		return vms
	}
	clients, servers := onHost(c.h1, "cli", ipVMA), onHost(c.h2, "srv", ipVMB)
	c.loop.RunFor(50 * time.Millisecond) // module boot time

	// Each client tenant ping-pongs 64 B with its own server tenant.
	done := 0
	for i := range clients {
		port := uint16(9000 + i)
		startEcho(t, servers[i].Guest, port)
		startPingPong(t, clients[i].Guest, ipVMB, port, msg, rounds, &done)
	}
	stepUntil(t, c, func() bool { return done == tenants })

	pairs, capacity, units, ringBytes := 0, 0, 0, 0
	for _, vm := range append(clients, servers...) {
		for _, pair := range vm.Guest.Pairs() {
			pairs++
			capacity += pair.Pages.Pages()
			units += pair.Pages.Resident()
			ringBytes += pair.Reserve.Bytes()
			if n := pair.Pages.Resident(); n != 1 {
				t.Errorf("%s's channel backs %d units after %d-byte round trips, want 1", vm.Name, n, msg)
			}
		}
	}
	if c.h1.HugePages != c.h2.HugePages {
		t.Fatal("the two hosts have pools of their own")
	}
	pages := c.h1.HugePages.Pages()
	if pages != 1 {
		t.Errorf("the hosts back %d huge pages for their %d channels, want 1", pages, 2*tenants)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(c)
	if pairs != 2*tenants {
		t.Fatalf("%d channels, want %d", pairs, 2*tenants)
	}
	if want := pairs * nkqueue.DefaultSlots * nqe.Size; ringBytes != want {
		t.Errorf("%d channels' reserves hold %d KiB of ring slots, want %d KiB each", pairs, ringBytes>>10, want/pairs>>10)
	}
	// The one resident page, 16 slot reserves and 16 count blocks
	// measure 4.2 MiB of live heap on linux/amd64 run alone, 6.6 MiB
	// after the package's other tests; the limit is the larger plus 25 %,
	// which a page per host with counts for every chunk (9.8 MiB after
	// the other tests) exceeds.
	const limit = 8.25 * (1 << 20)
	t.Logf("%d channels: %d resident units on %d huge pages (%d MiB of capacity), %d KiB of rings per channel, live heap %.1f MiB (limit %.1f MiB)",
		pairs, units, pages, capacity*shm.PageSize>>20, ringBytes/pairs>>10, float64(ms.HeapAlloc)/(1<<20), float64(limit)/(1<<20))
	if ms.HeapAlloc >= limit {
		t.Errorf("live heap %.1f MiB with %d channels, want below %.1f MiB",
			float64(ms.HeapAlloc)/(1<<20), pairs, float64(limit)/(1<<20))
	}
}

// A 4-shard pair whose connections sit on all four shards backs the
// units its peak outstanding chunks need: one 64 KiB unit, holding both
// the receive chunks and the 64 B sends, on both sides — not a unit per
// flow shard, nor a second unit for small messages — and the hosts'
// shared pool backs the one page both units are carved from. Its 24
// rings draw their slots from the one slab its reserve starts with.
func TestFourShardPairBacksOnePage(t *testing.T) {
	const (
		conns  = 8
		rounds = 50
		msg    = 64
	)
	c := newCluster(t, func(cfg *HostConfig) { cfg.Shards = 4 })
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	startEcho(t, vmb.Guest, 9000)

	done := 0
	for i := 0; i < conns; i++ {
		startPingPong(t, vma.Guest, ipVMB, 9000, msg, rounds, &done)
	}
	stepUntil(t, c, func() bool { return done == conns })

	// The engine's mapping table places every open connection on its flow
	// shard: each of the four must hold one on both hosts.
	for name, ce := range map[string]*CoreEngine{"client": c.h1.Engine, "server": c.h2.Engine} {
		if len(ce.pairs) != 1 {
			t.Fatalf("%s engine serves %d channels, want 1", name, len(ce.pairs))
		}
		ep := ce.pairs[0]
		perShard := make([]int, len(ep.shards))
		for _, i := range ep.byFD {
			perShard[ep.recs[i].shard]++
		}
		for i, n := range perShard {
			if n == 0 {
				t.Fatalf("%s engine maps %v connections per shard: shard %d is unused", name, perShard, i)
			}
		}
	}
	if c.h1.HugePages != c.h2.HugePages {
		t.Fatal("the two hosts have pools of their own")
	}
	if n := c.h1.HugePages.Pages(); n != 1 {
		t.Errorf("the hosts' pool backs %d huge pages for two pairs' units, want 1", n)
	}
	for name, vm := range map[string]*VM{"client": vma, "server": vmb} {
		for _, pair := range vm.Guest.Pairs() {
			if n := pair.Pages.Resident(); n != 1 {
				t.Errorf("%s pair backs %d units after %d-byte round trips on four shards, want 1", name, n, msg)
			}
			if n := pair.Reserve.Slabs(); n != 1 {
				t.Errorf("%s pair's rings drew %d slabs of slots, want 1", name, n)
			}
		}
	}
}

// pairQueues lists every queue of every shard of pair.
func pairQueues(pair *nkchan.Pair) []*nkqueue.Queue {
	var qs []*nkqueue.Queue
	for _, r := range pair.Shards {
		qs = append(qs, r.VMJob, r.VMCompletion, r.VMReceive, r.NSMJob, r.NSMCompletion, r.NSMReceive)
	}
	return qs
}

// startPingPong connects g to the echo server at ip:port and sends a
// msg-byte message rounds times, each once the previous one has come
// back; *done counts the connections that have finished.
func startPingPong(t *testing.T, g *guestlib.GuestLib, ip ipv4.Addr, port uint16, msg, rounds int, done *int) {
	t.Helper()
	out, in := make([]byte, msg), make([]byte, 4<<10)
	var fd int32
	round, got := 0, 0
	fd = g.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err != nil {
				t.Errorf("fd %d: connect: %v", fd, err)
				return
			}
			g.Send(fd, out)
		},
		OnReadable: func() {
			for {
				n, _ := g.Recv(fd, in)
				if n == 0 {
					return
				}
				if got += n; got < msg {
					continue
				}
				got = 0
				if round++; round == rounds {
					*done++
					return
				}
				g.Send(fd, out)
			}
		},
	})
	if err := g.Connect(fd, ip, port); err != nil {
		t.Fatal(err)
	}
}

// A sharded channel's rings are each a full queue deep but draw their
// slots from the pair's one reserve: one pair per host on 4, 8 and 16
// shards carries eight 64 B RPC connections and four bulk flows, each of
// which puts up to 128 chunks on its shard's rings at once, and no push
// to any ring of either pair is refused. A reserve grows only when every
// segment is held, and every ring keeps the segment it last drained: on
// 4 shards those 24 leave the bursts room in the reserve's first slab,
// so each pair stays at one slab while they are in flight; the 48 and 96
// rings of 8 and 16 shards may spill into a second.
func TestShardedRingsHoldTheirTraffic(t *testing.T) {
	const (
		conns  = 8
		rounds = 50
		msg    = 64
		flows  = 4
		bulk   = 4 << 20
	)
	for _, shards := range []int{4, 8, 16} {
		c := newCluster(t, func(cfg *HostConfig) { cfg.Shards = shards })
		vma, vmb := c.nkPair(t, "cubic", "cubic")
		startEcho(t, vmb.Guest, 9000)
		received := startSink(t, vmb.Guest, 9100)

		done := 0
		for i := 0; i < conns; i++ {
			startPingPong(t, vma.Guest, ipVMB, 9000, msg, rounds, &done)
		}
		for i := 0; i < flows; i++ {
			startBulk(t, vma.Guest, ipVMB, 9100, bulk)
		}
		vms := map[string]*VM{"client": vma, "server": vmb}
		peak := map[string]int{} // most segments a pair's rings held at once
		stepUntil(t, c, func() bool {
			for name, vm := range vms {
				for _, pair := range vm.Guest.Pairs() {
					peak[name] = max(peak[name], pair.Reserve.Held())
				}
			}
			return done == conns && *received == flows*bulk
		})

		for name, vm := range vms {
			for _, pair := range vm.Guest.Pairs() {
				if len(pair.Shards) != shards {
					t.Fatalf("%d shards: %s pair has %d", shards, name, len(pair.Shards))
				}
				per := pair.Reserve.SlabSegments()
				want := (peak[name] + per - 1) / per
				if shards == 4 {
					want = 1
				}
				if n := pair.Reserve.Slabs(); n != want {
					t.Errorf("%d shards: %s pair's rings held at most %d segments and drew %d slabs of %d, want %d",
						shards, name, peak[name], n, per, want)
				}
				for i, q := range pairQueues(pair) {
					if q.Refused() != 0 {
						t.Errorf("%d shards: %s shard %d queue %d refused %d pushes, want 0",
							shards, name, i/6, i%6, q.Refused())
					}
				}
			}
			t.Logf("%d shards: %s pair's rings held at most %d segments", shards, name, peak[name])
		}
		// A 128-chunk burst on one ring spans at least 8 segments: the
		// one slab held the bursts, it was not spared them.
		if peak["client"] < 128/shm.SegmentSlots {
			t.Errorf("%d shards: the client pair's rings held at most %d segments, want a burst's %d",
				shards, peak["client"], 128/shm.SegmentSlots)
		}
	}
}

// startSink accepts connections on port and drains them, returning the
// count of bytes read.
func startSink(t *testing.T, g *guestlib.GuestLib, port uint16) *int {
	t.Helper()
	received := new(int)
	buf := make([]byte, 64<<10)
	var lfd int32
	lfd = g.Socket(guestlib.Callbacks{OnAcceptable: func() {
		for {
			fd, ok := g.Accept(lfd)
			if !ok {
				return
			}
			g.SetCallbacks(fd, guestlib.Callbacks{OnReadable: func() {
				for {
					n, _ := g.Recv(fd, buf)
					if n == 0 {
						return
					}
					*received += n
				}
			}})
		}
	}})
	if err := g.Listen(lfd, port, 16); err != nil {
		t.Fatal(err)
	}
	return received
}

// startBulk connects g to ip:port and sends total bytes as fast as its
// shm credit allows.
func startBulk(t *testing.T, g *guestlib.GuestLib, ip ipv4.Addr, port uint16, total int) {
	t.Helper()
	buf := make([]byte, 64<<10)
	sent := 0
	var fd int32
	pump := func() {
		for sent < total {
			n := g.Send(fd, buf[:min(len(buf), total-sent)])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	fd = g.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err != nil {
				t.Errorf("fd %d: connect: %v", fd, err)
				return
			}
			pump()
		},
		OnWritable: pump,
	})
	if err := g.Connect(fd, ip, port); err != nil {
		t.Fatal(err)
	}
}
