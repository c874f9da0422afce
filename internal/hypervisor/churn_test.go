package hypervisor

import (
	"fmt"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/sim"
)

// TestConnectionChurn opens and closes many short connections through
// the NetKernel path and verifies nothing leaks: every connection
// establishes, every byte arrives, huge-page chunks return to the
// pool, the engine's mapping table drains as the connections close,
// and the NSM stacks' connection tables empty.
func TestConnectionChurn(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	// Echo-close server: read one message, echo, close.
	srv := vmb.Guest
	lfd := srv.Socket(guestlib.Callbacks{})
	srv.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		for {
			fd, ok := srv.Accept(lfd)
			if !ok {
				return
			}
			buf := make([]byte, 4096)
			srv.SetCallbacks(fd, guestlib.Callbacks{OnReadable: func() {
				n, _ := srv.Recv(fd, buf)
				if n > 0 {
					srv.Send(fd, buf[:n])
					srv.Close(fd)
				}
			}})
		}
	}})
	srv.Listen(lfd, 80, 64)

	const rounds = 40
	done := 0
	cli := vma.Guest
	var launch func(i int)
	launch = func(i int) {
		if i >= rounds {
			return
		}
		var fd int32
		fd = cli.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err != nil {
					t.Errorf("round %d: %v", i, err)
					return
				}
				cli.Send(fd, []byte("ping"))
			},
			OnReadable: func() {
				buf := make([]byte, 64)
				n, eof := cli.Recv(fd, buf)
				if n > 0 && string(buf[:n]) != "ping" {
					t.Errorf("round %d: echo %q", i, buf[:n])
				}
				if eof {
					cli.Close(fd)
					done++
					launch(i + 1) // next connection only after this one closed
				}
			},
		})
		cli.Connect(fd, ipVMB, 80)
	}
	launch(0)
	c.loop.RunFor(20 * time.Second)

	if done != rounds {
		t.Fatalf("completed %d of %d churn rounds", done, rounds)
	}
	// Connections drained from both NSM stacks (TIME_WAIT is 2×50 ms).
	c.loop.RunFor(5 * time.Second)
	if n := vma.NSM.Stack.ConnCount(); n != 0 {
		t.Errorf("client NSM leaked %d connections", n)
	}
	if n := vmb.NSM.Stack.ConnCount(); n != 0 {
		t.Errorf("server NSM leaked %d connections", n)
	}
	// The engine's mapping table drained with the connections (listener
	// entries remain: one per listening socket).
	if m := c.h1.Engine.Mappings(); m > 2 {
		t.Errorf("client engine holds %d mappings after churn", m)
	}
	if m := c.h2.Engine.Mappings(); m > 2 {
		t.Errorf("server engine holds %d mappings after churn", m)
	}
}

// TestManyVMChurnStress is the seeded scale-out churn tier: hundreds
// of tenant VMs multiplexed onto one shared 4-shard NSM per host,
// with tens of thousands of connections alive at once and every slot
// continuously tearing its connection down and dialing a fresh one to
// a randomly chosen server tenant. It hammers exactly the state the
// sharded datapath split up — per-shard fd↔cID mappings, sharded
// connection tables, per-shard rings — and then asserts the
// steady-state invariants: everything established, everything echoed,
// flow affinity held, and after quiesce no connection, mapping, or
// huge-page reference leaked anywhere. The full tier runs in tier-1;
// -short keeps the same shape at a fraction of the population.
func TestManyVMChurnStress(t *testing.T) {
	vmsPerHost, slotsPerVM := 100, 200 // 200 VMs, 20 000 concurrent conns
	if testing.Short() {
		vmsPerHost, slotsPerVM = 10, 20
	}
	const (
		seed        = 4242
		generations = 2 // churn rounds per slot
	)
	rng := sim.NewRNG(seed)

	c := newCluster(t, func(cfg *HostConfig) {
		cfg.Shards = 4
		// 2 MB of huge pages per tenant channel: pings are tiny and
		// chunks turn over within an RTT, and hundreds of default 80 MB
		// regions would be absurd.
		cfg.Chan.HugePages = 1
	})

	// One shared multi-queue NSM per host; tenant 0 boots it and the
	// rest attach to it (the journal version's many-VMs-per-NSM shape).
	mkTenants := func(h *Host, ip [4]byte) []*VM {
		vms := make([]*VM, vmsPerHost)
		var first *NSM
		for i := range vms {
			spec := NSMSpec{Form: FormModule, CC: "cubic"}
			if first != nil {
				spec = NSMSpec{ShareWith: first}
			}
			vm, err := h.CreateVM(VMConfig{
				Name: fmt.Sprintf("t%d", i), IP: ip, Mode: ModeNetKernel, NSM: spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			vms[i] = vm
			if first == nil {
				first = vm.NSM
			}
		}
		return vms
	}
	clients := mkTenants(c.h1, ipVMA)
	servers := mkTenants(c.h2, ipVMB)
	c.loop.RunFor(50 * time.Millisecond) // module boot

	// Every server tenant runs an echo service on its own port of the
	// shared stack: echo each ping, hold the connection, close on the
	// client's FIN.
	for j, srv := range servers {
		g := srv.Guest
		port := uint16(8000 + j)
		lfd := g.Socket(guestlib.Callbacks{})
		g.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
			for {
				fd, ok := g.Accept(lfd)
				if !ok {
					return
				}
				cfd := fd
				buf := make([]byte, 256)
				g.SetCallbacks(cfd, guestlib.Callbacks{OnReadable: func() {
					for {
						n, eof := g.Recv(cfd, buf)
						if n > 0 {
							g.Send(cfd, buf[:n])
						}
						if eof {
							g.Close(cfd)
							return
						}
						if n == 0 {
							return
						}
					}
				}})
			}
		}})
		if err := g.Listen(lfd, port, 256); err != nil {
			t.Fatal(err)
		}
	}

	// Client slots: each dials a seeded-random server tenant, pings,
	// holds the established connection open for a seeded 50–150 ms —
	// so the whole population is up at once — then closes and dials a
	// fresh connection, `generations` times per slot. Work is bounded
	// at slots×generations lifecycles; concurrency is bounded below by
	// the overlapping holds.
	var (
		completed int
		failed    int
		badEcho   int
	)
	var spawn func(g *guestlib.GuestLib, gen int)
	spawn = func(g *guestlib.GuestLib, gen int) {
		port := uint16(8000 + int(rng.Uint64()%uint64(vmsPerHost)))
		hold := 50*time.Millisecond + time.Duration(rng.Uint64()%uint64(100*time.Millisecond))
		var fd int32
		echoed := false
		fd = g.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err != nil {
					failed++
					return
				}
				g.Send(fd, []byte("ping"))
			},
			OnReadable: func() {
				buf := make([]byte, 64)
				n, _ := g.Recv(fd, buf)
				if n > 0 {
					if string(buf[:n]) != "ping" {
						badEcho++
					}
					if !echoed {
						echoed = true
						c.loop.AfterFunc(hold, func() { g.Close(fd) })
					}
				}
			},
			OnClose: func(error) {
				completed++
				if gen+1 < generations {
					spawn(g, gen+1)
				}
			},
		})
		if err := g.Connect(fd, ipVMB, port); err != nil {
			t.Fatalf("connect: %v", err)
		}
	}

	// Launch in waves (one tenant's slots per wave, a tick of virtual
	// time apart) so the initial 20 000 SYNs don't all land in the same
	// instant and overflow every listener backlog at once.
	for _, vm := range clients {
		for s := 0; s < slotsPerVM; s++ {
			spawn(vm.Guest, 0)
		}
		c.loop.RunFor(time.Millisecond)
	}

	// Peak concurrency: while the holds overlap, the shared server
	// stack must be carrying a large fraction of slots×VMs established
	// connections at once.
	peak := 0
	sample := func() {
		if n := servers[0].NSM.Stack.ConnCount(); n > peak {
			peak = n
		}
	}
	sample()

	target := generations * vmsPerHost * slotsPerVM
	deadline := 400 // × 25 ms virtual chunks = 10 s of virtual time
	for i := 0; completed < target && i < deadline; i++ {
		c.loop.RunFor(25 * time.Millisecond)
		sample()
	}
	if completed < target {
		t.Fatalf("completed %d of %d churn rounds in the deadline", completed, target)
	}
	if failed > 0 {
		t.Errorf("%d connections failed to establish", failed)
	}
	if badEcho > 0 {
		t.Errorf("%d connections read a corrupted echo", badEcho)
	}
	if want := vmsPerHost * slotsPerVM / 2; peak < want {
		t.Errorf("peak server conn-table occupancy %d, want ≥%d (holds did not overlap)", peak, want)
	}

	// Mid-flight affinity: no fd or cID may ever have crossed shards.
	for _, h := range []*Host{c.h1, c.h2} {
		if err := h.Engine.CheckFlowAffinity(); err != nil {
			t.Fatal(err)
		}
	}

	// Quiesce: every slot has finished its generations; let TIME_WAIT
	// (2×MSL = 100 ms) drain.
	c.loop.RunFor(3 * time.Second)

	for name, nsm := range map[string]*NSM{"client": clients[0].NSM, "server": servers[0].NSM} {
		if n := nsm.Stack.ConnCount(); n != 0 {
			t.Errorf("%s NSM still holds %d connections after quiesce", name, n)
		}
		for i := 0; i < nsm.Stack.RxShards(); i++ {
			if n := nsm.Stack.ShardConnCount(i); n != 0 {
				t.Errorf("%s NSM shard %d still holds %d connections", name, i, n)
			}
		}
	}
	// Engine mappings: one per listening socket survives on the server
	// host; the client side must drain to zero.
	if m := c.h1.Engine.Mappings(); m != 0 {
		t.Errorf("client engine holds %d mappings after quiesce", m)
	}
	if m := c.h2.Engine.Mappings(); m > vmsPerHost {
		t.Errorf("server engine holds %d mappings, want ≤%d listeners", m, vmsPerHost)
	}
	// No huge-page chunk may survive the churn on any tenant channel.
	leaked := 0
	for _, vm := range append(append([]*VM{}, clients...), servers...) {
		for _, pair := range vm.Guest.Pairs() {
			leaked += pair.Pages.LiveRefs()
		}
	}
	if leaked != 0 {
		t.Errorf("%d live huge-page chunk refs after quiesce", leaked)
	}
	t.Logf("%d VMs, %d slots, %d rounds completed, peak server conns %d",
		2*vmsPerHost, vmsPerHost*slotsPerVM, completed, peak)
}
