package main

import (
	"runtime"
	"sort"
	"time"

	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
	"netkernel/internal/tcpcc"
	"netkernel/internal/telemetry"
	"netkernel/internal/vswitch"
)

// The ladder: one isolated driver per layer, timing calls into the
// layer's public functions on a private sim.Loop. Every driver reports
// host ns (the CPU clock, like every timing here) and heap allocations
// per unit of the layer's work, so a
// regression in host_us_per_op can be walked down to the layer that
// caused it. Workload-independent; run once.

const (
	ladderRounds = 5    // each driver runs this many rounds; ns is the fastest round
	segPayload   = 1448 // MSS with timestamps: the bulk workloads' segment
	frameLen     = 1514
)

// rung is one driver: prepare builds the layer's fixture once and
// returns a function that performs n units of work.
type rung struct {
	name    string
	units   int // units per round at scale 1, sized for ≈ 30 ms a round
	prepare func() func(n int)
}

// runLadder runs every driver; scale shrinks the unit counts (tests).
func runLadder(scale float64) []metric {
	vals := newValues(ladderDefs())
	for _, r := range ladder {
		n := int(float64(r.units) * scale)
		if n < 64 {
			n = 64
		}
		work := r.prepare()
		work(n) // warm: caches, lazily built state, steady heap shape
		ns := make([]float64, ladderRounds)
		var allocs float64
		for i := range ns {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := cpuNow()
			work(n)
			d := cpuNow() - t0
			runtime.ReadMemStats(&m1)
			ns[i] = float64(d.Nanoseconds()) / float64(n)
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
		// The fastest round: on a shared box noise only ever adds time.
		sort.Float64s(ns)
		vals.setN(r.name, ns[0], ladderRounds)
		vals.set(allocsTwin(r.name), allocs)
	}
	return vals.list()
}

// deepLoop returns a loop holding the 100 k pending events the workloads
// hold (dead RTO and delayed-ACK timers), so a rung that schedules events
// pays the heap depth it pays in situ.
func deepLoop() *sim.Loop {
	loop := sim.NewLoop()
	nop := func() {}
	for i := 0; i < 100_000; i++ {
		loop.AfterFunc(time.Hour+time.Duration(i)*time.Microsecond, nop)
	}
	return loop
}

var sendElem = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 5, DataLen: segPayload}

func mustQueue(slots int) *nkqueue.Queue {
	q, err := nkqueue.NewQueue(nkqueue.Config{Slots: slots})
	must(err)
	return q
}

// wire is the ladder's stand-in for everything between two protocol
// endpoints: transmitted items queue here and the driver delivers them
// after the sender has returned, so no call stack nests and no sim event
// (or closure) is charged to the layer under test.
type wire[T any] struct {
	items []T
	head  int
}

func (w *wire[T]) push(it T) { w.items = append(w.items, it) }

func (w *wire[T]) pop() (it T, ok bool) {
	if w.head == len(w.items) {
		w.items, w.head = w.items[:0], 0
		return it, false
	}
	it = w.items[w.head]
	w.head++
	return it, true
}

var ladder = []rung{
	{"shm.ring_ns_per_nqe", 500_000, func() func(int) {
		ring, err := shm.NewRing(1024, nqe.Size)
		must(err)
		slot := make([]byte, nqe.Size)
		return func(n int) {
			for i := 0; i < n; i++ {
				ring.Enqueue(slot)
				ring.Dequeue(slot)
			}
		}
	}},
	{"shm.pages_ns_per_chunk", 400_000, func() func(int) {
		// The refcounted life of a send chunk: GuestLib allocates,
		// ServiceLib retains for TCP, both release.
		pages, err := shm.NewHugePages(4, 8<<10)
		must(err)
		return func(n int) {
			for i := 0; i < n; i++ {
				c, ok := pages.AllocSized(segPayload, 0)
				if !ok {
					panic("ladder: huge pages exhausted")
				}
				pages.Retain(c)
				pages.Free(c)
				pages.Free(c)
			}
		}
	}},
	{"nqe.codec_ns_per_nqe", 2_000_000, func() func(int) {
		slot := make([]byte, nqe.Size)
		e := sendElem
		var out nqe.Element
		return func(n int) {
			for i := 0; i < n; i++ {
				e.Seq = uint64(i)
				e.Encode(slot)
				out.Decode(slot)
			}
		}
	}},
	{"nkqueue.move_ns_per_nqe", 2_000_000, func() func(int) {
		const batch = 64
		src, dst := mustQueue(2*batch), mustQueue(2*batch)
		es, out := make([]nqe.Element, batch), make([]nqe.Element, batch)
		for i := range es {
			es[i] = sendElem
		}
		return func(n int) {
			for i := 0; i < n; i += batch {
				src.PushBatch(es)
				nkqueue.MoveBatch(dst, src, batch)
				dst.PopBatch(out)
			}
		}
	}},
	{"engine.pump_ns_per_nqe", 800_000, func() func(int) {
		// 64-element bursts of OpSend through a CoreEngine: validate,
		// fd→cID translate, copy to the NSM ring.
		const batch = 64
		loop := sim.NewLoop()
		ch := &nkchan.Pair{
			VMJob: mustQueue(4 * batch), VMCompletion: mustQueue(4 * batch), VMReceive: mustQueue(4 * batch),
			NSMJob: mustQueue(4 * batch), NSMCompletion: mustQueue(4 * batch), NSMReceive: mustQueue(4 * batch),
		}
		ce := hypervisor.NewCoreEngine(loop, hypervisor.EngineConfig{Batch: batch})
		ce.Attach(ch, 1, 2, 0, 0, 0)
		// Install the fd 5 ↔ cID 77 mapping with an OpSocket round trip.
		var got nqe.Element
		ch.VMJob.Push(&nqe.Element{Op: nqe.OpSocket, Source: nqe.FromVM, VMID: 1, FD: 5, Seq: 1})
		ch.KickEngineVM(0)
		loop.RunFor(10 * time.Millisecond)
		if !ch.NSMJob.Pop(&got) {
			panic("ladder: socket job did not cross the engine")
		}
		ch.NSMCompletion.Push(&nqe.Element{Op: nqe.OpSocket, Source: nqe.FromNSM, CID: 77, Seq: got.Seq})
		ch.KickEngineNSM(0)
		loop.RunFor(10 * time.Millisecond)
		if !ch.VMCompletion.Pop(&got) || got.FD != 5 {
			panic("ladder: socket completion did not come back")
		}
		es, out := make([]nqe.Element, batch), make([]nqe.Element, batch)
		for i := range es {
			es[i] = sendElem
		}
		return func(n int) {
			for i := 0; i < n; i += batch {
				ch.VMJob.PushBatch(es)
				ch.KickEngineVM(0)
				loop.RunFor(10 * time.Millisecond)
				for moved := 0; moved < batch; {
					m := ch.NSMJob.PopBatch(out)
					if m == 0 {
						panic("ladder: engine did not move the burst")
					}
					moved += m
				}
			}
		}
	}},
	{"tcp.wire_ns_per_seg", 30_000, func() func(int) {
		src, dst := ipv4.Addr{10, 0, 1, 1}, ipv4.Addr{10, 0, 2, 1}
		payload := make([]byte, segPayload)
		h := tcp.Header{SrcPort: 49152, DstPort: 9090, Flags: tcp.FlagACK | tcp.FlagPSH, Window: 512,
			Opts: tcp.Options{TSOK: true, TSVal: 1, TSEcr: 2}}
		return func(n int) {
			for i := 0; i < n; i++ {
				h.Seq += segPayload
				seg := h.Marshal(src, dst, payload)
				if _, _, err := tcp.Parse(src, dst, seg); err != nil {
					panic(err)
				}
			}
		}
	}},
	{"tcp.conn_ns_per_seg", 15_000, func() func(int) {
		// A Dial'ed and a passive Conn wired Output→Input, bulk data one
		// way, ACKs the other: the TCP state machine alone. The unit is a
		// segment in, data or ACK, as tcp.segs_in_per_op counts them.
		loop := sim.NewLoop()
		type seg struct {
			h       tcp.Header
			payload []byte
			to      **tcp.Conn
		}
		var w wire[seg]
		var a, b *tcp.Conn
		delivered := 0
		cfg := func(local, remote tcp.AddrPort, to **tcp.Conn) tcp.Config {
			cc, err := tcpcc.New("cubic")
			must(err)
			return tcp.Config{
				Clock: loop, RNG: sim.NewRNG(7), Local: local, Remote: remote, MSS: segPayload, CC: cc,
				MinRTO: 10 * time.Millisecond,
				Output: func(h *tcp.Header, p []byte, _ bool) { w.push(seg{*h, p, to}) },
			}
		}
		la, lb := tcp.AddrPort{Addr: ipv4.Addr{10, 0, 1, 1}, Port: 49152}, tcp.AddrPort{Addr: ipv4.Addr{10, 0, 2, 1}, Port: 9090}
		a = tcp.Dial(cfg(la, lb, &b))
		syn, _ := w.pop()
		b = tcp.NewPassive(cfg(lb, la, &a), &syn.h, false)
		b.SetReceiveSink(func(p []byte) int { return len(p) })
		buf := make([]byte, 64<<10)
		return func(n int) {
			for target := delivered + n; delivered < target; {
				a.Write(buf)
				for {
					s, ok := w.pop()
					if !ok {
						break
					}
					(*s.to).Input(&s.h, s.payload, false)
					delivered++
				}
				loop.RunFor(time.Microsecond) // let time pass: RTT samples, delayed ACKs, dead timers surfacing
			}
		}
	}},
	{"ipv4.ns_per_pkt", 40_000, func() func(int) {
		h := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: ipv4.Addr{10, 0, 1, 1}, Dst: ipv4.Addr{10, 0, 2, 1}}
		payload := make([]byte, segPayload+32)
		return func(n int) {
			for i := 0; i < n; i++ {
				h.ID++
				pkts, err := ipv4.Fragment(h, payload, ethernet.MTU)
				must(err)
				if _, _, err := ipv4.Parse(pkts[0]); err != nil {
					panic(err)
				}
			}
		}
	}},
	{"ethernet.ns_per_frame", 40_000, func() func(int) {
		// The framing step as Stack.sendEthernet performs it: a fresh
		// frame, header marshalled, packet copied in; then the parse.
		h := ethernet.Header{Dst: ethernet.MAC{2, 2, 0, 0, 0, 1}, Src: ethernet.MAC{2, 1, 0, 0, 0, 1}, Type: ethernet.TypeIPv4}
		pkt := make([]byte, frameLen-ethernet.HeaderLen)
		return func(n int) {
			for i := 0; i < n; i++ {
				frame := make([]byte, ethernet.HeaderLen+len(pkt))
				h.Marshal(frame)
				copy(frame[ethernet.HeaderLen:], pkt)
				if _, _, err := ethernet.Parse(frame); err != nil {
					panic(err)
				}
			}
		}
	}},
	{"stack.pair_ns_per_seg", 4_000, func() func(int) {
		// Two stacks port to port through the legacy socket API: TCP +
		// IPv4 + Ethernet + demux, with no nqe path, CPU model or link.
		loop := sim.NewLoop()
		type frame struct {
			b  []byte
			to *stack.Stack
		}
		var w wire[frame]
		mk := func(name string, seed uint64) *stack.Stack {
			return stack.New(stack.Config{Clock: loop, RNG: sim.NewRNG(seed), Name: name, MinRTO: 10 * time.Millisecond})
		}
		sa, sb := mk("a", 1), mk("b", 2)
		ipA, ipB := ipv4.Addr{10, 0, 1, 1}, ipv4.Addr{10, 0, 2, 1}
		sa.AttachInterface(ethernet.MAC{2, 1, 0, 0, 0, 1}, ipA, ethernet.MTU, 8, ipv4.Addr{}, func(f []byte) { w.push(frame{f, sb}) })
		sb.AttachInterface(ethernet.MAC{2, 2, 0, 0, 0, 1}, ipB, ethernet.MTU, 8, ipv4.Addr{}, func(f []byte) { w.push(frame{f, sa}) })
		flush := func() {
			for {
				f, ok := w.pop()
				if !ok {
					return
				}
				f.to.DeliverFrame(f.b)
			}
		}
		l, err := sb.Listen(9090, 16, stack.SocketOptions{})
		must(err)
		sink := make([]byte, 256<<10)
		l.OnAcceptable = func() {
			c, _ := l.Accept()
			drain := func() {
				for {
					if n, _ := c.Read(sink); n == 0 {
						return
					}
				}
			}
			c.SetCallbacks(drain, nil, nil)
			drain()
		}
		conn, err := sa.Dial(tcp.AddrPort{Addr: ipB, Port: 9090}, stack.SocketOptions{})
		must(err)
		for i := 0; i < 100 && conn.State() != tcp.StateEstablished; i++ {
			flush()
			loop.RunFor(time.Microsecond)
		}
		if conn.State() != tcp.StateEstablished {
			panic("ladder: stack pair did not connect")
		}
		buf := make([]byte, 64<<10)
		segsIn := func() int { return int(sb.Stats().TCPSegsIn) }
		return func(n int) {
			for target := segsIn() + n; segsIn() < target; {
				conn.Write(buf)
				flush()
				loop.RunFor(time.Microsecond)
			}
		}
	}},
	{"vswitch.ns_per_frame", 100_000, func() func(int) {
		// Learned unicast through the software switch, its per-frame
		// delay event included.
		loop := deepLoop()
		sw := vswitch.New(loop, vswitch.Config{})
		got := 0
		pa := sw.AddPort(netsim.PortFunc(func([]byte) {}))
		pb := sw.AddPort(netsim.PortFunc(func([]byte) { got++ }))
		ab, ba := make([]byte, frameLen), make([]byte, frameLen)
		copy(ab, []byte{2, 2, 0, 0, 0, 1, 2, 1, 0, 0, 0, 1})
		copy(ba, []byte{2, 1, 0, 0, 0, 1, 2, 2, 0, 0, 0, 1})
		pb.Deliver(ba) // teach the switch where b lives
		loop.RunFor(10 * time.Microsecond)
		return func(n int) {
			for i := 0; i < n; i += 32 {
				for j := 0; j < 32; j++ {
					pa.Deliver(ab)
				}
				loop.RunFor(10 * time.Microsecond)
			}
		}
	}},
	{"netsim.link_ns_per_frame", 80_000, func() func(int) {
		// Serialise + propagate on a 40G link, 32 frames in flight: two
		// events a frame.
		loop := deepLoop()
		link := netsim.NewLink(loop, sim.NewRNG(1), netsim.Testbed40G(), netsim.PortFunc(func([]byte) {}))
		f := make([]byte, frameLen)
		return func(n int) {
			for i := 0; i < n; i += 32 {
				for j := 0; j < 32; j++ {
					link.Send(f)
				}
				loop.RunFor(20 * time.Microsecond)
			}
		}
	}},
	{"netsim.cpu_ns_per_dispatch", 300_000, func() func(int) {
		loop := deepLoop() // one event a dispatch
		cpu := netsim.NewCPU(loop, 8)
		done := 0
		fn := func() { done++ }
		return func(n int) {
			for i := 0; i < n; i += 32 {
				for j := 0; j < 32; j++ {
					cpu.Dispatch(j, 470*time.Nanosecond, fn)
				}
				loop.RunFor(4 * time.Microsecond)
			}
		}
	}},
	{"sim.loop_ns_per_event", 100_000, func() func(int) {
		// Schedule + run with 100 k events pending.
		loop := deepLoop()
		nop := func() {}
		return func(n int) {
			for i := 0; i < n; i++ {
				loop.AfterFunc(time.Microsecond, nop)
				loop.Step()
			}
		}
	}},
	{"sim.timer_ns_per_arm_stop", 120_000, func() func(int) {
		// The RTO pattern: arm 10 ms, stop, re-arm; 1 in 100 fires. The
		// clock moves 1 µs per unit, so stopped timers leave the heap only
		// when their instant comes.
		loop := sim.NewLoop()
		nop := func() {}
		return func(n int) {
			for i := 0; i < n; i++ {
				t := loop.AfterFunc(10*time.Millisecond, nop)
				if i%100 != 0 {
					t.Stop()
				}
				loop.RunFor(time.Microsecond)
			}
		}
	}},
	{"telemetry.ns_per_count", 4_000_000, func() func(int) {
		var c telemetry.Counter
		telemetry.NewRegistry().Scope("ladder").Counter("count", &c)
		return func(n int) {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		}
	}},
}
