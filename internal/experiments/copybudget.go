package experiments

// Copy-budget experiment (DESIGN.md §8): a bidirectional streaming
// echo between two NetKernel VMs, with every layer's memcpy counters
// sampled so each payload byte's trips through memory can be audited.
// The budget after the huge-page span datapath is 1 copy per byte on
// send (application buffer → huge-page chunk; the chunk then rides
// refcounted through ServiceLib and the TCP send buffer untouched) and
// 2 on receive (wire payload → chunk in ServiceLib's receive sink,
// chunk → application buffer in GuestLib). The CI gate allows 2.5 to
// leave room for the copy fallbacks (out-of-order arrivals buffered in
// rcvBuf, oversized sends) without letting a regression to the old
// copy-at-every-layer path slip through.

import (
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/telemetry"
)

// echoChunk is the echo's application write granularity.
const echoChunk = 16 << 10

// CopyBudgetConfig shapes the echo measurement.
type CopyBudgetConfig struct {
	// Warmup precedes the measured window, after the NSM boot wait
	// (default 200 ms — enough for slow start to clear).
	Warmup time.Duration
	// Window is the measured period (default 200 ms).
	Window time.Duration
	// Seed drives deterministic randomness (default 4242).
	Seed uint64
	// TraceSampleEvery arms per-nqe span tracing on both hosts (every
	// Nth operation; 0, the default, runs untraced).
	TraceSampleEvery int
}

func (c *CopyBudgetConfig) fillDefaults() {
	if c.Warmup <= 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 200 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 4242
	}
}

// CopyBudgetResult reports the echo run's copy accounting. All byte
// counts are deltas over the measured window, summed across both VMs
// (the client sends and receives; the server receives and re-sends).
type CopyBudgetResult struct {
	// BytesEchoed is the payload the client got back — the goodput
	// numerator.
	BytesEchoed uint64
	// GoodputBps is the client's echo receive rate in bits/s.
	GoodputBps float64
	// Report holds the per-layer copied-byte deltas.
	Report hypervisor.CopyReport
	// TxCopiesPerByte / RxCopiesPerByte are the headline numbers:
	// memcpy's each payload byte suffered in each direction.
	TxCopiesPerByte float64
	RxCopiesPerByte float64
	// Snapshot is the client host's unified telemetry registry at the
	// end of the run (queue accounting, stack counters, and
	// span-latency histograms when tracing is armed).
	Snapshot telemetry.Snapshot
	// Spans are the client host's completed pipeline spans, oldest
	// first (empty unless TraceSampleEvery > 0).
	Spans []telemetry.Span
}

// RunCopyBudget runs the echo and audits the copies.
func RunCopyBudget(cfg CopyBudgetConfig) CopyBudgetResult {
	cfg.fillDefaults()
	w := NewWorld(WorldConfig{
		Link:          netsim.Testbed40G(),
		PerPacketCost: 470 * time.Nanosecond,
		Cores:         8,
		Seed:          cfg.Seed,
		MinRTO:        10 * time.Millisecond,
		Mutate: func(hc *hypervisor.HostConfig) {
			hc.TraceSampleEvery = cfg.TraceSampleEvery
		},
	})
	spec := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 8}
	client, err := w.H1.CreateVM(hypervisor.VMConfig{Name: "cli", IP: SenderIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
	if err != nil {
		panic(err)
	}
	server, err := w.H2.CreateVM(hypervisor.VMConfig{Name: "srv", IP: ReceiverIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
	if err != nil {
		panic(err)
	}

	// Let the NSM VMs boot before opening sockets (ops issued before
	// the module serves its queues would stall).
	w.Loop.RunFor(client.NSM.Profile.BootTime + 50*time.Millisecond)

	const port = 9090
	startEchoServer(server.Guest, port, echoChunk)
	echoed := startEchoClient(client.Guest, server.IP, port, echoChunk)

	w.Loop.RunFor(cfg.Warmup)
	cliBase, srvBase := client.CopyReport(), server.CopyReport()
	echoBase := echoed()
	w.Loop.RunFor(cfg.Window)
	delta := client.CopyReport().Sub(cliBase)
	srvDelta := server.CopyReport().Sub(srvBase)

	delta.PayloadTx += srvDelta.PayloadTx
	delta.PayloadRx += srvDelta.PayloadRx
	delta.GuestTxCopied += srvDelta.GuestTxCopied
	delta.GuestRxCopied += srvDelta.GuestRxCopied
	delta.ServiceTxCopied += srvDelta.ServiceTxCopied
	delta.ServiceRxCopied += srvDelta.ServiceRxCopied
	delta.TCPTxCopied += srvDelta.TCPTxCopied
	delta.TCPRxCopied += srvDelta.TCPRxCopied
	delta.FrameTxCopied += srvDelta.FrameTxCopied

	got := echoed() - echoBase
	return CopyBudgetResult{
		BytesEchoed:     got,
		GoodputBps:      float64(got) * 8 / cfg.Window.Seconds(),
		Report:          delta,
		TxCopiesPerByte: delta.TxCopiesPerByte(),
		RxCopiesPerByte: delta.RxCopiesPerByte(),
		Snapshot:        w.H1.Snapshot(),
		Spans:           w.H1.Tracer.Completed(),
	}
}

// startEchoServer accepts on port and writes every received byte back,
// holding unflushed bytes in an application-side pending buffer while
// the send buffer is full.
func startEchoServer(g *guestlib.GuestLib, port uint16, chunk int) {
	lfd := g.Socket(guestlib.Callbacks{})
	g.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		fd, ok := g.Accept(lfd)
		if !ok {
			return
		}
		buf := make([]byte, chunk)
		var pend []byte
		var echo func()
		flush := func() bool {
			for len(pend) > 0 {
				n := g.Send(fd, pend)
				if n == 0 {
					return false
				}
				pend = pend[n:]
			}
			return true
		}
		echo = func() {
			for {
				if !flush() {
					return
				}
				n, _ := g.Recv(fd, buf)
				if n == 0 {
					return
				}
				pend = append(pend[:0], buf[:n]...)
			}
		}
		g.SetCallbacks(fd, guestlib.Callbacks{OnReadable: echo, OnWritable: echo})
		echo()
	}})
	if err := g.Listen(lfd, port, 16); err != nil {
		panic(err)
	}
}

// startEchoClient connects, keeps the pipe full, drains the echoes,
// and returns a sampler for the cumulative echoed-byte count.
func startEchoClient(g *guestlib.GuestLib, ip [4]byte, port uint16, chunk int) func() uint64 {
	var echoed uint64
	out := make([]byte, chunk)
	in := make([]byte, chunk)
	var fd int32
	pump := func() {
		for g.Send(fd, out) > 0 {
		}
	}
	drain := func() {
		for {
			n, _ := g.Recv(fd, in)
			if n == 0 {
				return
			}
			echoed += uint64(n)
		}
	}
	fd = g.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err == nil {
				pump()
			}
		},
		OnWritable: pump,
		OnReadable: drain,
	})
	if err := g.Connect(fd, ip, port); err != nil {
		panic(err)
	}
	return func() uint64 { return echoed }
}
