package experiments

// Message-rate experiment (DESIGN.md §11): the short-flow counterpart
// of the bulk-transfer figures. Bulk goodput hides the per-operation
// costs that dominate RPC-style tenants — connection setup, teardown,
// and the wakeup that tells the application one small message arrived.
// RunRPC measures three of them on the NetKernel path:
//
//   - Echo RPS: closed-loop small-message echo across Conns
//     connections; the server runs the Poller/AcceptBatch fast path,
//     the client the classic per-event callbacks, so one run covers
//     both APIs end to end.
//   - Sparse wakeups: SparseConns mostly-idle connections on one
//     poller; bursts of rpcBurstSize messages land on random
//     connections and the poller must coalesce each burst into ~one
//     OnReady. The identical scenario replayed with per-event
//     callbacks is the baseline the ≥2x amortization gate compares
//     against.
//   - Churn: closed-loop connect→close cycles, the setup/teardown rate
//     the socket/connState recycling pools exist for.
//
// Everything runs in virtual time, so every number is an exact
// function of the seed; TestRPCGate checks the result against the
// package's exact record.

import (
	"encoding/binary"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/sim"
)

const (
	// rpcMsgBytes is the echo message size.
	rpcMsgBytes = 64
	// rpcBurstSize is how many connections receive a message per
	// sparse-phase burst.
	rpcBurstSize = 8
	// rpcBurstGap separates the sparse phase's bursts.
	rpcBurstGap = 100 * time.Microsecond
	// rpcChurners is the churn phase's concurrent connect→close loop
	// count. Each cycle burns one ephemeral port until its TIME_WAIT
	// expires, so rpcChurners×ChurnWindow must stay well under the
	// 16k-port range.
	rpcChurners = 16
)

// RPCConfig shapes the message-rate measurement.
type RPCConfig struct {
	// Conns is the echo phase's closed-loop connection count (default 32).
	Conns int
	// Warmup precedes the echo window (default 20 ms after boot).
	Warmup time.Duration
	// Window is the measured echo period (default 50 ms).
	Window time.Duration
	// SparseConns is the sparse phase's connection count (default
	// 10000; -short runs shrink it).
	SparseConns int
	// Bursts is how many activity bursts the sparse phase injects
	// (default 200).
	Bursts int
	// ChurnWindow is the measured churn period (default 20 ms).
	ChurnWindow time.Duration
	// Seed drives deterministic randomness (default 4242).
	Seed uint64
}

func (c *RPCConfig) fillDefaults() {
	if c.Conns <= 0 {
		c.Conns = 32
	}
	if c.Warmup <= 0 {
		c.Warmup = 20 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 50 * time.Millisecond
	}
	if c.SparseConns <= 0 {
		c.SparseConns = 10000
	}
	if c.Bursts <= 0 {
		c.Bursts = 200
	}
	if c.ChurnWindow <= 0 {
		c.ChurnWindow = 20 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 4242
	}
}

// RPCResult reports one run of the message-rate measurement.
type RPCResult struct {
	Conns    int
	MsgBytes int
	// RoundTrips is the echo round trips completed in the window.
	RoundTrips uint64
	// EchoRPS is RoundTrips over the window.
	EchoRPS float64

	SparseConns int
	// PollerWakeups counts server OnReady invocations during the burst
	// phase; PollerEvents the readiness notifications they delivered.
	PollerWakeups, PollerEvents uint64
	// CallbackWakeups counts the per-event callback invocations the
	// identical scenario costs without a poller.
	CallbackWakeups uint64
	// AmortizationRatio is CallbackWakeups / PollerWakeups — how many
	// per-event wakeups one coalesced OnReady replaces (the ≥2x gate).
	AmortizationRatio float64
	// PollerLatency and CallbackLatency are the mean send→drain delays
	// for sparse messages in each mode.
	PollerLatency, CallbackLatency time.Duration

	// ChurnCycles is completed connect→close cycles in ChurnWindow;
	// ChurnPerSec is the rate.
	ChurnCycles uint64
	ChurnPerSec float64
}

// newRPCWorld builds the short-fat-pipe testbed every phase reuses: a
// 40G link with a 5 µs one-way delay, so per-operation costs (channel
// hops, notification latency, packet processing) dominate over
// propagation and the message rate is a property of the stack, not the
// wire.
func newRPCWorld(seed uint64) *World {
	return NewWorld(WorldConfig{
		Link:          netsim.LinkConfig{Rate: 40 * netsim.Gbps, Delay: 5 * time.Microsecond, QueueBytes: 1 << 20},
		PerPacketCost: 500 * time.Nanosecond,
		Cores:         8,
		Seed:          seed,
		MinRTO:        10 * time.Millisecond,
	})
}

func mkRPCVM(h *hypervisor.Host, ip [4]byte) *hypervisor.VM {
	vm, err := h.CreateVM(hypervisor.VMConfig{
		Name: "rpc", IP: ip, Mode: hypervisor.ModeNetKernel,
		NSM: hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 4},
	})
	if err != nil {
		panic(err)
	}
	return vm
}

// pollServer wires a poller-driven echo/drain server: AcceptBatch on
// the listener, onData per readable connection, Close on EOF. Accepted
// connections join the poller inside the wakeup that reports them; Add
// replays any data that arrived ahead of it.
func pollServer(rg *guestlib.GuestLib, port uint16, onData func(fd int32, p []byte)) *guestlib.Poller {
	buf := make([]byte, 64<<10)
	batch := make([]int32, 64)
	events := make([]guestlib.PollEvent, 128)
	var p *guestlib.Poller
	var lfd int32
	drain := func(fd int32) {
		for {
			n, eof := rg.Recv(fd, buf)
			if n > 0 && onData != nil {
				onData(fd, buf[:n])
			}
			if n == 0 {
				if eof {
					rg.Close(fd)
				}
				return
			}
		}
	}
	p = rg.NewPoller(func() {
		for {
			n := p.Wait(events)
			if n == 0 {
				return
			}
			for _, ev := range events[:n] {
				if ev.FD == lfd {
					for {
						m := rg.AcceptBatch(lfd, batch)
						for _, fd := range batch[:m] {
							p.Add(fd)
						}
						if m < len(batch) {
							break
						}
					}
					continue
				}
				drain(ev.FD)
			}
		}
	})
	lfd = rg.Socket(guestlib.Callbacks{})
	if err := rg.Listen(lfd, port, 512); err != nil {
		panic(err)
	}
	if err := p.Add(lfd); err != nil {
		panic(err)
	}
	return p
}

// callbackServer is the same server on the legacy per-event API:
// OnAcceptable accepts one at a time, every connection gets its own
// OnReadable. wake counts the callback invocations — the wakeup cost
// the poller amortizes away.
func callbackServer(rg *guestlib.GuestLib, port uint16, wake *uint64, onData func(fd int32, p []byte)) {
	buf := make([]byte, 64<<10)
	drain := func(fd int32) {
		for {
			n, eof := rg.Recv(fd, buf)
			if n > 0 && onData != nil {
				onData(fd, buf[:n])
			}
			if n == 0 {
				if eof {
					rg.Close(fd)
				}
				return
			}
		}
	}
	var lfd int32
	lfd = rg.Socket(guestlib.Callbacks{OnAcceptable: func() {
		*wake++
		for {
			fd, ok := rg.Accept(lfd)
			if !ok {
				return
			}
			rg.SetCallbacks(fd, guestlib.Callbacks{OnReadable: func() {
				*wake++
				drain(fd)
			}})
			drain(fd)
		}
	}})
	if err := rg.Listen(lfd, port, 512); err != nil {
		panic(err)
	}
}

// runEcho measures closed-loop small-message echo RPS.
func runEcho(cfg RPCConfig) (uint64, float64) {
	w := newRPCWorld(cfg.Seed)
	client := mkRPCVM(w.H1, SenderIP)
	server := mkRPCVM(w.H2, ReceiverIP)
	w.Loop.RunFor(client.NSM.Profile.BootTime + 50*time.Millisecond)

	sg, rg := client.Guest, server.Guest
	const port = 9000
	pollServer(rg, port, func(fd int32, p []byte) {
		rg.Send(fd, p) // echo
	})

	var rts uint64
	msg := make([]byte, rpcMsgBytes)
	cliBuf := make([]byte, 4<<10)
	for i := 0; i < cfg.Conns; i++ {
		var fd int32
		remaining := rpcMsgBytes
		fd = sg.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err == nil {
					sg.Send(fd, msg)
				}
			},
			OnReadable: func() {
				for {
					n, _ := sg.Recv(fd, cliBuf)
					if n == 0 {
						return
					}
					remaining -= n
					for remaining <= 0 {
						rts++
						remaining += rpcMsgBytes
						sg.Send(fd, msg)
					}
				}
			},
		})
		if err := sg.Connect(fd, ReceiverIP, port); err != nil {
			panic(err)
		}
	}

	w.Loop.RunFor(cfg.Warmup)
	base := rts
	w.Loop.RunFor(cfg.Window)
	done := rts - base
	return done, float64(done) / cfg.Window.Seconds()
}

// runSparse builds SparseConns mostly-idle connections, injects
// Bursts×rpcBurstSize timestamped messages on random ones, and reports
// (wakeups, events, mean send→drain latency) for the chosen server
// mode. Both modes run the byte-identical client schedule.
func runSparse(cfg RPCConfig, usePoller bool) (wakeups, events uint64, lat time.Duration) {
	w := newRPCWorld(cfg.Seed)
	client := mkRPCVM(w.H1, SenderIP)
	server := mkRPCVM(w.H2, ReceiverIP)
	w.Loop.RunFor(client.NSM.Profile.BootTime + 50*time.Millisecond)

	sg, rg := client.Guest, server.Guest
	const port = 9100

	// Server: drain 8-byte timestamp frames; a connection picked twice
	// in one burst delivers 16 bytes, so frames are parsed from a
	// per-connection remainder.
	var latSum time.Duration
	var latN uint64
	pending := map[int32][]byte{}
	onData := func(fd int32, p []byte) {
		b := append(pending[fd], p...)
		for len(b) >= 8 {
			sent := sim.Time(binary.LittleEndian.Uint64(b))
			latSum += w.Loop.Now().Sub(sent)
			latN++
			b = b[8:]
		}
		pending[fd] = b
	}
	var cbWakeups uint64
	if usePoller {
		pollServer(rg, port, onData)
	} else {
		callbackServer(rg, port, &cbWakeups, onData)
	}

	// Client: connect in 250-conn waves so the listener backlog never
	// overflows, then wait for every handshake.
	fds := make([]int32, 0, cfg.SparseConns)
	established := 0
	var wave func(start int)
	wave = func(start int) {
		end := min(start+250, cfg.SparseConns)
		for i := start; i < end; i++ {
			fd := sg.Socket(guestlib.Callbacks{
				OnEstablished: func(err error) {
					if err == nil {
						established++
					}
				},
			})
			if err := sg.Connect(fd, ReceiverIP, port); err != nil {
				panic(err)
			}
			fds = append(fds, fd)
		}
		if end < cfg.SparseConns {
			w.Loop.AfterFunc(time.Millisecond, func() { wave(end) })
		}
	}
	wave(0)
	for i := 0; i < 400 && established < cfg.SparseConns; i++ {
		w.Loop.RunFor(5 * time.Millisecond)
	}
	if established < cfg.SparseConns {
		panic("rpc sparse phase: connections failed to establish")
	}

	// Quiesce, then snapshot the wakeup counters so setup noise
	// (accept storms, handshake completions) stays out of the measure.
	w.Loop.RunFor(10 * time.Millisecond)
	st := rg.Stats()
	wake0, ev0, cb0 := st.PollerWakeups, st.PollerEvents, cbWakeups

	rng := sim.NewRNG(cfg.Seed*7 + 11)
	for b := 0; b < cfg.Bursts; b++ {
		w.Loop.AfterFunc(time.Duration(b+1)*rpcBurstGap, func() {
			for k := 0; k < rpcBurstSize; k++ {
				fd := fds[rng.Intn(len(fds))]
				var msg [8]byte
				binary.LittleEndian.PutUint64(msg[:], uint64(w.Loop.Now()))
				sg.Send(fd, msg[:])
			}
		})
	}
	w.Loop.RunFor(time.Duration(cfg.Bursts+2)*rpcBurstGap + 10*time.Millisecond)

	st = rg.Stats()
	if usePoller {
		wakeups, events = st.PollerWakeups-wake0, st.PollerEvents-ev0
	} else {
		wakeups, events = cbWakeups-cb0, cbWakeups-cb0
	}
	if latN > 0 {
		lat = latSum / time.Duration(latN)
	}
	return wakeups, events, lat
}

// runChurn measures the closed-loop connect→close cycle rate.
func runChurn(cfg RPCConfig) (uint64, float64) {
	w := newRPCWorld(cfg.Seed)
	client := mkRPCVM(w.H1, SenderIP)
	server := mkRPCVM(w.H2, ReceiverIP)
	w.Loop.RunFor(client.NSM.Profile.BootTime + 50*time.Millisecond)

	sg, rg := client.Guest, server.Guest
	const port = 9200
	pollServer(rg, port, nil) // accept, drain, close on EOF

	var cycles uint64
	for i := 0; i < rpcChurners; i++ {
		var cycle func()
		cycle = func() {
			var fd int32
			fd = sg.Socket(guestlib.Callbacks{
				OnEstablished: func(err error) {
					if err == nil {
						sg.Close(fd)
					}
				},
				OnClose: func(error) {
					cycles++
					cycle()
				},
			})
			if err := sg.Connect(fd, ReceiverIP, port); err != nil {
				panic(err)
			}
		}
		cycle()
	}

	w.Loop.RunFor(10 * time.Millisecond)
	base := cycles
	w.Loop.RunFor(cfg.ChurnWindow)
	done := cycles - base
	return done, float64(done) / cfg.ChurnWindow.Seconds()
}

// RunRPC runs the three message-rate phases, each on a fresh testbed
// with the same seed.
func RunRPC(cfg RPCConfig) RPCResult {
	cfg.fillDefaults()
	res := RPCResult{Conns: cfg.Conns, MsgBytes: rpcMsgBytes, SparseConns: cfg.SparseConns}
	res.RoundTrips, res.EchoRPS = runEcho(cfg)
	res.PollerWakeups, res.PollerEvents, res.PollerLatency = runSparse(cfg, true)
	res.CallbackWakeups, _, res.CallbackLatency = runSparse(cfg, false)
	if res.PollerWakeups > 0 {
		res.AmortizationRatio = float64(res.CallbackWakeups) / float64(res.PollerWakeups)
	}
	res.ChurnCycles, res.ChurnPerSec = runChurn(cfg)
	return res
}
