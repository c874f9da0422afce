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
// carved from its host's huge-page pool, and its four shards split one
// channel's queue depth (DESIGN.md §17), so a many-tenant world costs
// the simulator the units its traffic used and one ring set's bytes per
// channel, not every tenant's full region, a page per tenant, or a ring
// set per shard up front. Eight tenants per host on one shared 4-shard
// NSM each run a few 64 B round trips; each channel then backs one unit
// and 384 KiB of rings, and each host one page for its eight channels.
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
			for _, q := range pairQueues(pair) {
				ringBytes += q.Cap() * nqe.Size
			}
			if n := pair.Pages.Resident(); n != 1 {
				t.Errorf("%s's channel backs %d units after %d-byte round trips, want 1", vm.Name, n, msg)
			}
		}
	}
	pages := 0
	for name, h := range map[string]*Host{"client": c.h1, "server": c.h2} {
		pages += h.HugePages.Pages()
		if n := h.HugePages.Pages(); n != 1 {
			t.Errorf("%s host backs %d huge pages for its %d channels, want 1", name, n, tenants)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(c)
	if pairs != 2*tenants {
		t.Fatalf("%d channels, want %d", pairs, 2*tenants)
	}
	if ringBytes != pairs*384<<10 {
		t.Errorf("%d channels hold %d KiB of rings, want 384 KiB each", pairs, ringBytes>>10)
	}
	// The 2 resident pages and 16 ring sets measure 12.4 MiB of live heap
	// on linux/amd64; the limit is that plus 25 %, which a page per
	// channel (40.2 MiB) exceeds.
	const limit = 15.5 * (1 << 20)
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
// flow shard, nor a second unit for small messages — and each host backs
// the one page that unit is carved from. Its rings split the channel's
// 1 024-slot depth: 256 slots each.
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
	for name, h := range map[string]*Host{"client": c.h1, "server": c.h2} {
		if n := h.HugePages.Pages(); n != 1 {
			t.Errorf("%s host backs %d huge pages, want 1", name, n)
		}
	}
	for name, vm := range map[string]*VM{"client": vma, "server": vmb} {
		for _, pair := range vm.Guest.Pairs() {
			if n := pair.Pages.Resident(); n != 1 {
				t.Errorf("%s pair backs %d units after %d-byte round trips on four shards, want 1", name, n, msg)
			}
			for i, q := range pairQueues(pair) {
				if q.Cap() != 256 {
					t.Errorf("%s pair's queue %d holds %d slots, want 256", name, i, q.Cap())
				}
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

// A sharded channel's rings split the pair's queue depth but each holds
// more than one socket's 1 MiB shm window of 8 KiB chunks: 256 slots on
// 4, 8 and 16 shards. One pair per host carries eight 64 B RPC
// connections and four bulk flows, each of which puts up to 128 chunks
// on its shard's rings at once; no push to any ring of either pair is
// refused.
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
		stepUntil(t, c, func() bool { return done == conns && *received == flows*bulk })

		for name, vm := range map[string]*VM{"client": vma, "server": vmb} {
			for _, pair := range vm.Guest.Pairs() {
				if len(pair.Shards) != shards {
					t.Fatalf("%d shards: %s pair has %d", shards, name, len(pair.Shards))
				}
				for i, q := range pairQueues(pair) {
					if q.Cap() != 256 || q.Refused() != 0 {
						t.Errorf("%d shards: %s shard %d queue %d: %d slots, %d refused pushes; want 256 and 0",
							shards, name, i/6, i%6, q.Cap(), q.Refused())
					}
				}
			}
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
