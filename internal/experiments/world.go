// Package experiments reproduces the paper's evaluation: Figure 4
// (throughput of CUBIC native vs CUBIC NSM), Table 1 (memory-copy
// latency), the §4.2 microbenchmarks (nqe copy cost, GuestLib↔
// ServiceLib channel throughput), Figure 5 (a Windows VM using a BBR
// NSM over a WAN), and the §5 ablations (notification modes, priority
// queues, NSM forms, multiplexing, sync vs async).
//
// Each experiment returns typed rows; cmd/nkbench prints them in the
// paper's format, and the tests check each virtual-time result against
// testdata/record.txt. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
)

// World is a two-host testbed: the paper's pair of Xeon servers joined
// back to back (§4.1), with a configurable wire. Its hosts share one
// huge-page pool.
type World struct {
	Loop   *sim.Loop
	H1, H2 *hypervisor.Host
	L12    *netsim.Link // host1 → host2
	L21    *netsim.Link
}

// WorldConfig shapes the testbed.
type WorldConfig struct {
	Link netsim.LinkConfig
	// PerPacketCost is the per-core processing cost per packet; it is
	// the knob that sets the single-flow ceiling in Figure 4.
	PerPacketCost time.Duration
	// Cores per host (default 8).
	Cores int
	// Seed drives the deterministic loss/ISN randomness.
	Seed uint64
	// MinRTO for TCP (default 200 ms; datacenter scenarios lower it).
	MinRTO time.Duration
	// Mutate, when set, adjusts each host config before construction.
	Mutate func(cfg *hypervisor.HostConfig)
}

// NewWorld builds the testbed.
func NewWorld(cfg WorldConfig) *World {
	loop := sim.NewLoop()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	pages := shm.NewPool() // shared by both hosts (DESIGN.md §17)
	mk := func(name string, id uint8) *hypervisor.Host {
		hc := hypervisor.HostConfig{
			Name:          name,
			Clock:         loop,
			RNG:           sim.NewRNG(cfg.Seed + uint64(id)),
			HostID:        id,
			Cores:         cfg.Cores,
			PerPacketCost: cfg.PerPacketCost,
			MinRTO:        cfg.MinRTO,
			MSL:           100 * time.Millisecond,
			HugePages:     pages,
		}
		if cfg.Mutate != nil {
			cfg.Mutate(&hc)
		}
		return hypervisor.NewHost(hc)
	}
	w := &World{Loop: loop, H1: mk("host1", 1), H2: mk("host2", 2)}
	rng := sim.NewRNG(cfg.Seed + 1000)
	w.L12, w.L21 = netsim.Duplex(loop, rng, cfg.Link, w.H1.NIC, w.H2.NIC)
	w.H1.NIC.AttachWire(w.L12)
	w.H2.NIC.AttachWire(w.L21)
	return w
}

// IPs used by the experiment VMs.
var (
	SenderIP   = ipv4.Addr{10, 0, 1, 1}
	ReceiverIP = ipv4.Addr{10, 0, 2, 1}
)

// Flow is one measured bulk-transfer flow: a self-pumping sender and a
// counting receiver. It abstracts over the legacy (in-guest stack) and
// NetKernel (GuestLib) APIs so both Figure 4 bars use identical
// traffic logic.
type Flow struct {
	// Received is the receiver-side cumulative payload byte count.
	Received func() uint64
	// Established reports whether the connection completed its
	// handshake.
	Established func() bool
}

// chunk is the application write granularity.
const appChunk = 64 << 10

// pumpBuf is shared scratch for senders; contents are irrelevant.
var pumpBuf = make([]byte, appChunk)

// StartFlow opens a bulk transfer from sender to receiver on the given
// port, picking the legacy or NetKernel API per VM mode — so mixed
// scenarios (a NetKernel server talking to a plain client, as in
// Figure 5) work naturally.
func StartFlow(w *World, sender, receiver *hypervisor.VM, port uint16) *Flow {
	f := &Flow{}
	var received uint64
	var established bool
	f.Received = func() uint64 { return received }
	f.Established = func() bool { return established }

	// Receiver side: accept and drain, counting payload bytes.
	if receiver.Mode == hypervisor.ModeLegacy {
		l, err := receiver.Legacy.Listen(port, 16, stack.SocketOptions{})
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 256<<10)
		l.OnAcceptable = func() {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			drain := func() {
				for {
					n, _ := conn.Read(buf)
					if n == 0 {
						return
					}
					received += uint64(n)
				}
			}
			conn.SetCallbacks(drain, nil, nil)
			drain()
		}
	} else {
		rg := receiver.Guest
		lfd := rg.Socket(guestlib.Callbacks{})
		buf := make([]byte, 256<<10)
		rg.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
			fd, ok := rg.Accept(lfd)
			if !ok {
				return
			}
			drain := func() {
				for {
					n, _ := rg.Recv(fd, buf)
					if n == 0 {
						return
					}
					received += uint64(n)
				}
			}
			rg.SetCallbacks(fd, guestlib.Callbacks{OnReadable: drain})
			drain()
		}})
		if err := rg.Listen(lfd, port, 16); err != nil {
			panic(err)
		}
	}

	// Sender side: connect, then keep the pipe full.
	if sender.Mode == hypervisor.ModeLegacy {
		var conn *tcp.Conn
		pump := func() {
			for conn.Write(pumpBuf) > 0 {
			}
		}
		var err error
		conn, err = sender.Legacy.Dial(tcp.AddrPort{Addr: receiver.IP, Port: port}, stack.SocketOptions{
			OnEstablished: func(err error) {
				if err == nil {
					established = true
					pump()
				}
			},
			OnWritable: pump,
		})
		if err != nil {
			panic(err)
		}
	} else {
		sg := sender.Guest
		var fd int32
		pump := func() {
			for sg.Send(fd, pumpBuf) > 0 {
			}
		}
		fd = sg.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err == nil {
					established = true
					pump()
				}
			},
			OnWritable: pump,
		})
		if err := sg.Connect(fd, receiver.IP, port); err != nil {
			panic(err)
		}
	}
	return f
}

// MeasureGoodput runs warmup, then measures the flows' aggregate
// receive rate over the window and returns bits per second.
func MeasureGoodput(w *World, flows []*Flow, warmup, window time.Duration) float64 {
	w.Loop.RunFor(warmup)
	start := make([]uint64, len(flows))
	for i, f := range flows {
		start[i] = f.Received()
	}
	w.Loop.RunFor(window)
	var total uint64
	for i, f := range flows {
		total += f.Received() - start[i]
	}
	return float64(total) * 8 / window.Seconds()
}
