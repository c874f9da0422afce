package hypervisor

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/shm"
)

// A VM↔NSM channel's huge pages are backed on first touch (DESIGN.md
// §17), so a many-tenant world costs the simulator the pages its traffic
// used, not every tenant's full region up front. Eight tenants per host
// on one shared 4-shard NSM each run a few 64 B round trips; each
// channel then backs one page, and the live heap holds well under a
// quarter of the sixteen regions' capacity.
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
		g := clients[i].Guest
		out, in := make([]byte, msg), make([]byte, 4<<10)
		var fd int32
		round, got := 0, 0
		fd = g.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err != nil {
					t.Errorf("tenant %d: connect: %v", i, err)
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
						done++
						return
					}
					g.Send(fd, out)
				}
			},
		})
		if err := g.Connect(fd, ipVMB, port); err != nil {
			t.Fatal(err)
		}
	}
	stepUntil(t, c, func() bool { return done == tenants })

	pairs, capacity, resident := 0, 0, 0
	for _, vm := range append(clients, servers...) {
		for _, pair := range vm.Guest.Pairs() {
			pairs++
			capacity += pair.Pages.Pages()
			resident += pair.Pages.Resident()
			if n := pair.Pages.Resident(); n != 1 {
				t.Errorf("%s's channel backs %d huge pages after %d-byte round trips, want 1", vm.Name, n, msg)
			}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(c)
	if pairs != 2*tenants {
		t.Fatalf("%d channels, want %d", pairs, 2*tenants)
	}
	limit := uint64(capacity) * shm.PageSize / 4
	t.Logf("%d channels: %d of %d huge pages resident, live heap %.1f MiB (limit %.1f MiB)",
		pairs, resident, capacity, float64(ms.HeapAlloc)/(1<<20), float64(limit)/(1<<20))
	if ms.HeapAlloc >= limit {
		t.Errorf("live heap %.1f MiB with %d channels, want below a quarter of their %d MiB of huge pages",
			float64(ms.HeapAlloc)/(1<<20), pairs, capacity*shm.PageSize>>20)
	}
}

// A 4-shard pair whose connections sit on all four shards backs the
// pages its peak outstanding chunks need: one page, holding both the
// receive chunks and the 64 B sends, on both sides — not a page per
// flow shard, nor a second page for small messages.
func TestFourShardPairBacksOnePage(t *testing.T) {
	const (
		conns  = 8
		rounds = 50
		msg    = 64
	)
	c := newCluster(t, func(cfg *HostConfig) { cfg.Shards = 4 })
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	startEcho(t, vmb.Guest, 9000)

	g := vma.Guest
	done := 0
	for i := 0; i < conns; i++ {
		out, in := make([]byte, msg), make([]byte, 4<<10)
		var fd int32
		round, got := 0, 0
		fd = g.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err != nil {
					t.Errorf("conn %d: connect: %v", i, err)
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
						done++
						return
					}
					g.Send(fd, out)
				}
			},
		})
		if err := g.Connect(fd, ipVMB, 9000); err != nil {
			t.Fatal(err)
		}
	}
	stepUntil(t, c, func() bool { return done == conns })

	// The engine's mapping table places every open connection on its flow
	// shard: each of the four must hold one on both hosts.
	for name, ce := range map[string]*CoreEngine{"client": c.h1.Engine, "server": c.h2.Engine} {
		if len(ce.pairs) != 1 {
			t.Fatalf("%s engine serves %d channels, want 1", name, len(ce.pairs))
		}
		var perShard []int
		for _, sh := range ce.pairs[0].shards {
			sh.mu.Lock()
			perShard = append(perShard, len(sh.byFD))
			sh.mu.Unlock()
		}
		for i, n := range perShard {
			if n == 0 {
				t.Fatalf("%s engine maps %v connections per shard: shard %d is unused", name, perShard, i)
			}
		}
	}
	for name, vm := range map[string]*VM{"client": vma, "server": vmb} {
		for _, pair := range vm.Guest.Pairs() {
			if n := pair.Pages.Resident(); n != 1 {
				t.Errorf("%s pair backs %d huge pages after %d-byte round trips on four shards, want 1", name, n, msg)
			}
		}
	}
}
