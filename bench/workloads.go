package main

import (
	"time"

	"netkernel/internal/experiments"
	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
)

// sizes is one run's shape in virtual time: warm-up, then slices equal
// slices, each one Loop.RunFor.
type sizes struct {
	warmup time.Duration
	slice  time.Duration
	slices int
}

// workload is one fixed scenario on the two-host testbed.
type workload struct {
	name string
	why  string
	// warmup and slices are fixed by the scenario; slicePerSecond is the
	// virtual time one slice covers per second of -seconds, sized so the
	// measured period takes about that long on the 2-core reference box.
	// The work is thus a pure function of (workload, seed, seconds).
	warmup         time.Duration
	slices         int
	slicePerSecond time.Duration
	// world builds the testbed and its VMs (clients on host 1, servers on
	// host 2); traceEvery arms the program's own tracer.
	world func(seed uint64, traceEvery int) *bed
	// start opens the servers and the clients.
	start func(b *bed, ld *load)
}

func (wl *workload) sizes(seconds float64) sizes {
	return sizes{
		warmup: wl.warmup,
		slice:  time.Duration(float64(wl.slicePerSecond) * seconds),
		slices: wl.slices,
	}
}

// bed is a built testbed.
type bed struct {
	w                *experiments.World
	clients, servers []*hypervisor.VM
}

func (b *bed) guest(vm *hypervisor.VM, ld *load) guest { return guest{vm.Guest, ld.rec} }

var workloads = []*workload{
	{
		name:   "bulk_echo",
		why:    "byte-bound: one connection streaming 16 KiB chunks both ways at MSS size, where TCP, framing and the event loop dominate",
		warmup: 100 * time.Millisecond, slices: 6, slicePerSecond: 3400 * time.Microsecond,
		world: bulkEchoWorld, start: startBulkEcho,
	},
	{
		name:   "rpc_shared",
		why:    "message-bound: 32 connections of 4 tenants ping-pong 64 B through one shared 4-shard NSM, where the nqe path dominates",
		warmup: 20 * time.Millisecond, slices: 8, slicePerSecond: 9800 * time.Microsecond,
		world: rpcSharedWorld, start: startRPCShared,
	},
	{
		name:   "short_flows",
		why:    "connection-bound: 16 clients connect, echo 64 B and close in a loop, so the nqe path and TCP carry control, not data",
		warmup: 300 * time.Millisecond, slices: 8, slicePerSecond: 9800 * time.Microsecond,
		world: shortFlowsWorld, start: startShortFlows,
	},
	{
		name:   "lossy_bulk",
		why:    "loss-bound: 4 one-way CUBIC flows over a 10G link with bursty loss and reordering, where retransmission and timers dominate",
		warmup: 100 * time.Millisecond, slices: 8, slicePerSecond: 16 * time.Millisecond,
		world: lossyBulkWorld, start: startLossyBulk,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func mustVM(h *hypervisor.Host, name string, ip [4]byte, spec hypervisor.NSMSpec) *hypervisor.VM {
	vm, err := h.CreateVM(hypervisor.VMConfig{Name: name, IP: ip, Mode: hypervisor.ModeNetKernel, NSM: spec})
	must(err)
	return vm
}

// tenants puts n VMs on a host, all served by one NSM: the first boots
// it, the rest attach to it.
func tenants(h *hypervisor.Host, n int, ip [4]byte, spec hypervisor.NSMSpec) []*hypervisor.VM {
	vms := make([]*hypervisor.VM, n)
	for i := range vms {
		if i > 0 {
			spec = hypervisor.NSMSpec{ShareWith: vms[0].NSM}
		}
		vms[i] = mustVM(h, "tenant", ip, spec)
	}
	return vms
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// --- bulk_echo: exactly experiments.RunCopyBudget's scenario ---

const echoChunk = 16 << 10

func bulkEchoWorld(seed uint64, traceEvery int) *bed {
	w := experiments.NewWorld(experiments.WorldConfig{
		Link:          netsim.Testbed40G(),
		PerPacketCost: 470 * time.Nanosecond,
		Cores:         8,
		Seed:          seed,
		MinRTO:        10 * time.Millisecond,
		Mutate:        func(hc *hypervisor.HostConfig) { hc.TraceSampleEvery = traceEvery },
	})
	spec := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 8}
	return &bed{
		w:       w,
		clients: []*hypervisor.VM{mustVM(w.H1, "cli", experiments.SenderIP, spec)},
		servers: []*hypervisor.VM{mustVM(w.H2, "srv", experiments.ReceiverIP, spec)},
	}
}

func startBulkEcho(b *bed, ld *load) {
	const port = 9090
	sg, cg := b.guest(b.servers[0], ld), b.guest(b.clients[0], ld)

	// Server: write every received byte back, holding what Send refused
	// until the socket is writable again.
	lfd := sg.Socket(guestlib.Callbacks{})
	must(sg.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		fd, ok := sg.Accept(lfd)
		if !ok {
			return
		}
		buf := make([]byte, echoChunk)
		var pend []byte
		var off uint64
		echo := func() {
			for {
				for len(pend) > 0 {
					n := sg.Send(fd, pend, 0)
					if n == 0 {
						return
					}
					pend = pend[n:]
				}
				n, eof := sg.Recv(fd, buf, 0)
				if n == 0 {
					if eof {
						sg.Close(fd, 0)
					}
					return
				}
				ld.check(0, off, buf[:n])
				off += uint64(n)
				pend = buf[:n]
			}
		}
		must(sg.SetCallbacks(fd, guestlib.Callbacks{OnReadable: echo, OnWritable: echo}))
		echo()
	}}))
	must(sg.Listen(lfd, port, 16))
	ld.closers = append(ld.closers, func() { sg.Close(lfd, 0) })

	// Client: keep the pipe full, drain the echoes, close once every
	// byte sent has come back.
	st := &stream{ld: ld, conn: 0, chunk: echoChunk}
	out, in := make([]byte, echoChunk), make([]byte, echoChunk)
	var fd int32
	pump := func() { st.pump(cg, fd, out) }
	finish := func() { st.finish(cg, fd, out) }
	ld.conns++
	fd = cg.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err != nil {
				ld.violate("bulk_echo: connect: %v", err)
				return
			}
			ld.established++
			ld.after(time.Millisecond, pump)
		},
		OnWritable: func() { ld.after(thinkMax, pump) },
		OnReadable: func() {
			for {
				n, _ := cg.Recv(fd, in, st.rcvd/echoChunk+1)
				if n == 0 {
					break
				}
				st.sink(in[:n])
			}
			if ld.stopping {
				finish()
			}
		},
	})
	must(cg.Connect(fd, experiments.ReceiverIP, port, 0))
	ld.stops = append(ld.stops, finish)
}

// --- rpc_shared: the paper's NSaaS case, many tenants on one shared NSM ---

const (
	rpcTenants     = 4
	rpcConnsPerVM  = 8
	rpcMsg         = 64
	rpcServerBatch = 64
)

func rpcLink() netsim.LinkConfig {
	return netsim.LinkConfig{Rate: 40 * netsim.Gbps, Delay: 5 * time.Microsecond, QueueBytes: 1 << 20}
}

func rpcSharedWorld(seed uint64, traceEvery int) *bed {
	w := experiments.NewWorld(experiments.WorldConfig{
		Link:          rpcLink(),
		PerPacketCost: 500 * time.Nanosecond,
		Cores:         8,
		Seed:          seed,
		MinRTO:        10 * time.Millisecond,
		Mutate: func(hc *hypervisor.HostConfig) {
			hc.Shards = 4
			hc.TraceSampleEvery = traceEvery
		},
	})
	spec := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 4}
	return &bed{
		w:       w,
		clients: tenants(w.H1, rpcTenants, experiments.SenderIP, spec),
		servers: tenants(w.H2, rpcTenants, experiments.ReceiverIP, spec),
	}
}

// pollServer runs the Poller/AcceptBatch echo server of the message-rate
// work: one OnReady per delivery batch, AcceptBatch on the listener, every
// readable connection drained and echoed, Close on EOF.
func pollServer(g guest, ld *load, port uint16) {
	buf := make([]byte, 4<<10)
	batch := make([]int32, rpcServerBatch)
	events := make([]guestlib.PollEvent, 128)
	var p *guestlib.Poller
	var lfd int32
	drain := func(fd int32) {
		for {
			n, eof := g.Recv(fd, buf, 0)
			if n == 0 {
				if eof {
					g.Close(fd, 0)
				}
				return
			}
			if g.Send(fd, buf[:n], 0) != n {
				ld.violate("server port %d: short echo of %d bytes", port, n)
			}
		}
	}
	p = g.NewPoller(func() {
		for {
			n := g.Wait(p, events)
			if n == 0 {
				return
			}
			for _, ev := range events[:n] {
				if ev.FD != lfd {
					drain(ev.FD)
					continue
				}
				for {
					m := g.AcceptBatch(lfd, batch)
					for _, fd := range batch[:m] {
						must(p.Add(fd))
					}
					if m < len(batch) {
						break
					}
				}
			}
		}
	})
	lfd = g.Socket(guestlib.Callbacks{})
	must(g.Listen(lfd, port, 512))
	must(p.Add(lfd))
	ld.closers = append(ld.closers, func() { g.Close(lfd, 0) })
}

func startRPCShared(b *bed, ld *load) {
	const port = 9000
	for t, srv := range b.servers {
		pollServer(b.guest(srv, ld), ld, uint16(port+t))
	}
	for t, cli := range b.clients {
		g := b.guest(cli, ld)
		for c := 0; c < rpcConnsPerVM; c++ {
			conn := t*rpcConnsPerVM + c
			msg, buf := make([]byte, rpcMsg), make([]byte, 4<<10)
			var fd int32
			var seq uint64 // round trips completed
			var got int    // bytes of the reply in flight read so far
			var t0 = ld.loop.Now()
			inflight, closed := false, false
			send := func() {
				if ld.stopping {
					if !closed {
						closed = true
						g.Close(fd, 0)
					}
					return
				}
				ld.fill(msg, conn, seq*rpcMsg)
				t0, inflight = ld.loop.Now(), true
				ld.started++
				if g.Send(fd, msg, uint64(conn)<<32|(seq+1)) != rpcMsg {
					ld.violate("rpc_shared conn %d: short send", conn)
				}
			}
			ld.conns++
			fd = g.Socket(guestlib.Callbacks{
				OnEstablished: func(err error) {
					if err != nil {
						ld.violate("rpc_shared conn %d: connect: %v", conn, err)
						return
					}
					ld.established++
					ld.after(100*time.Microsecond, send)
				},
				OnReadable: func() {
					for !closed {
						n, _ := g.Recv(fd, buf, uint64(conn)<<32|(seq+1))
						if n == 0 {
							return
						}
						ld.check(conn, seq*rpcMsg+uint64(got), buf[:n])
						if got += n; got > rpcMsg {
							ld.violate("rpc_shared conn %d: %d bytes beyond the reply", conn, got-rpcMsg)
						}
						if got >= rpcMsg {
							got, inflight = 0, false
							seq++
							ld.opDone(t0, rpcMsg)
							ld.after(thinkMax, send)
						}
					}
				},
			})
			must(g.Connect(fd, experiments.ReceiverIP, uint16(port+t), 0))
			ld.stops = append(ld.stops, func() {
				if !inflight {
					send() // idle: stopping makes this a close
				}
			})
		}
	}
}

// --- short_flows: the same nqe path and TCP used for control ---

const flowClients = 16

func shortFlowsWorld(seed uint64, traceEvery int) *bed {
	w := experiments.NewWorld(experiments.WorldConfig{
		Link:          rpcLink(),
		PerPacketCost: 500 * time.Nanosecond,
		Cores:         8,
		Seed:          seed,
		MinRTO:        10 * time.Millisecond,
		Mutate:        func(hc *hypervisor.HostConfig) { hc.TraceSampleEvery = traceEvery },
	})
	spec := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 4}
	return &bed{
		w:       w,
		clients: []*hypervisor.VM{mustVM(w.H1, "cli", experiments.SenderIP, spec)},
		servers: []*hypervisor.VM{mustVM(w.H2, "srv", experiments.ReceiverIP, spec)},
	}
}

func startShortFlows(b *bed, ld *load) {
	const port = 9200
	pollServer(b.guest(b.servers[0], ld), ld, port)
	g := b.guest(b.clients[0], ld)
	for c := 0; c < flowClients; c++ {
		msg, buf := make([]byte, rpcMsg), make([]byte, 4<<10)
		var flows uint64 // flows this client finished
		var cycle func()
		cycle = func() {
			if ld.stopping {
				return
			}
			var fd int32
			got, ended := 0, false
			t0 := ld.loop.Now()
			op := uint64(c)<<32 | (flows + 1)
			ld.started++
			// end finishes the flow, once, and starts the next.
			end := func(err error) {
				if ended {
					return
				}
				ended = true
				if err != nil || got != rpcMsg {
					ld.violate("short_flows client %d flow %d: ended with %d of %d bytes: %v", c, flows, got, rpcMsg, err)
				} else {
					ld.opDone(t0, rpcMsg)
				}
				flows++
				ld.after(thinkMax, cycle)
			}
			fd = g.Socket(guestlib.Callbacks{
				OnEstablished: func(err error) {
					if err != nil {
						g.Close(fd, op)
						end(err)
						return
					}
					ld.fill(msg, c, flows*rpcMsg)
					if g.Send(fd, msg, op) != rpcMsg {
						ld.violate("short_flows client %d flow %d: short send", c, flows)
					}
				},
				OnReadable: func() {
					for got < rpcMsg {
						n, eof := g.Recv(fd, buf, op)
						if n == 0 {
							if eof {
								g.Close(fd, op) // peer closed early; end fails the op
							}
							return
						}
						ld.check(c, flows*rpcMsg+uint64(got), buf[:n])
						if got += n; got >= rpcMsg {
							g.Close(fd, op)
						}
					}
				},
				OnClose: end,
			})
			must(g.Connect(fd, experiments.ReceiverIP, port, op))
		}
		ld.after(100*time.Microsecond, cycle)
	}
}

// --- lossy_bulk: the same TCP under loss and reordering ---

const (
	lossyFlows = 4
	lossyChunk = 64 << 10
)

func lossyBulkWorld(seed uint64, traceEvery int) *bed {
	w := experiments.NewWorld(experiments.WorldConfig{
		Link: netsim.LinkConfig{
			Rate: 10 * netsim.Gbps, Delay: 50 * time.Microsecond, QueueBytes: 1 << 20,
			FrameOverhead: netsim.EthernetOverhead,
			Faults: netsim.FaultConfig{
				GE:            &netsim.GilbertElliott{PGoodBad: 0.0005, PBadGood: 0.3, LossBad: 0.5},
				ReorderProb:   0.01,
				ReorderSpread: 100 * time.Microsecond,
			},
		},
		PerPacketCost: 470 * time.Nanosecond,
		Cores:         8,
		Seed:          seed,
		// 2 ms, not the 10 ms of the other scenarios: the few RTOs of a run
		// would each stall a flow for 10 to 30 ms with dozens of chunks queued
		// behind it, and p99.9 would read 18 ms on one seed and 40 on the next.
		MinRTO: 2 * time.Millisecond,
		Mutate: func(hc *hypervisor.HostConfig) { hc.TraceSampleEvery = traceEvery },
	})
	spec := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 8}
	return &bed{
		w:       w,
		clients: []*hypervisor.VM{mustVM(w.H1, "cli", experiments.SenderIP, spec)},
		servers: []*hypervisor.VM{mustVM(w.H2, "srv", experiments.ReceiverIP, spec)},
	}
}

func startLossyBulk(b *bed, ld *load) {
	const port = 7000
	sg, cg := b.guest(b.servers[0], ld), b.guest(b.clients[0], ld)
	for i := 0; i < lossyFlows; i++ {
		st := &stream{ld: ld, conn: i, chunk: lossyChunk}

		out := make([]byte, lossyChunk)
		var fd int32 // the sender's socket
		finish := func() { st.finish(cg, fd, out) }

		// Receiver: one listener per flow, so the port names the stream
		// the bytes belong to.
		lfd := sg.Socket(guestlib.Callbacks{})
		in := make([]byte, 256<<10)
		must(sg.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
			rfd, ok := sg.Accept(lfd)
			if !ok {
				return
			}
			drain := func() {
				for {
					n, eof := sg.Recv(rfd, in, st.rcvd/lossyChunk+1)
					if n == 0 {
						if eof {
							sg.Close(rfd, 0)
						}
						break
					}
					st.sink(in[:n])
				}
				if ld.stopping {
					finish()
				}
			}
			must(sg.SetCallbacks(rfd, guestlib.Callbacks{OnReadable: drain}))
			drain()
		}}))
		must(sg.Listen(lfd, uint16(port+i), 16))
		ld.closers = append(ld.closers, func() { sg.Close(lfd, 0) })

		// Sender: keep the pipe full with 64 KiB writes.
		pump := func() { st.pump(cg, fd, out) }
		ld.conns++
		fd = cg.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err != nil {
					ld.violate("lossy_bulk flow %d: connect: %v", st.conn, err)
					return
				}
				ld.established++
				ld.after(time.Millisecond, pump)
			},
			OnWritable: func() { ld.after(thinkMax, pump) },
		})
		must(cg.Connect(fd, experiments.ReceiverIP, uint16(port+i), 0))
		ld.stops = append(ld.stops, finish)
	}
}
