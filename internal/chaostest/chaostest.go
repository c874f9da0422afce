// Package chaostest runs seeded, randomized end-to-end scenarios
// against the full NetKernel pipeline — GuestLib → CoreEngine →
// ServiceLib → stack → fabric — in virtual time, with faults injected
// at every layer: link loss (Bernoulli and bursty Gilbert–Elliott),
// reordering, duplication, bit corruption, link flaps, stalled nqe
// queues, and NSM crash+reboot.
//
// After each run a set of invariants must hold regardless of the fault
// schedule:
//
//   - Byte integrity: every byte an application received is exactly a
//     prefix of what the peer sent (full equality for cleanly closed
//     connections) — TCP over shared memory never reorders, drops, or
//     corrupts data at the socket API.
//   - Terminal states: every connection ends closed or failed; nothing
//     wedges half-open.
//   - No leaks: the event loop drains to empty (no stuck timers), every
//     shared-memory chunk returns to its pool, the engine's fd↔cID
//     table empties, and every stack's connection table empties.
//   - Conservation: per-link frames offered equal transmitted plus the
//     three drop classes; per-switch frames received equal forwarded
//     plus flooded plus dropped.
//
// Every run is deterministic: the same seed produces the identical
// event trace and identical final statistics, so any failure is
// reproducible from the one-line seed in the test log (-chaos.seed=N).
package chaostest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/nkqueue"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
	"netkernel/internal/telemetry"
	"netkernel/internal/vswitch"
)

// Profile is one chaos scenario: a fault environment plus a workload.
type Profile struct {
	Name string
	// Link shapes both directions of the inter-host path, including
	// netsim-level faults (loss, GE bursts, reorder, duplication,
	// corruption).
	Link netsim.LinkConfig
	// Flaps schedules link outages: each entry downs both directions
	// at At (measured from workload start) for Outage.
	Flaps []Flap

	// QueueStallProb fails nqe-queue pushes with this probability
	// (fault-injected "queue stall": the push behaves as if the ring
	// were full).
	QueueStallProb float64
	// CrashAt reboots the server-side NSM at these times (from
	// workload start).
	CrashAt []time.Duration
	// Migrations schedules live migrations of the server-side NSM
	// (times from workload start): each point boots a fresh module and
	// cuts every tenant over mid-transfer, connections intact. Points
	// fire against whatever module serves the VM at that moment, so
	// chained migrations follow the previous successor.
	Migrations []MigrationPoint

	// Conns is how many client connections the workload opens.
	Conns int
	// MaxBody bounds the per-connection payload (1..MaxBody bytes).
	MaxBody int
	// Spacing staggers connection starts.
	Spacing time.Duration
	// Watchdog force-closes a connection that has not reached a
	// terminal state this long after it started, so a lost FIN or a
	// silently dead peer cannot leave it half-open forever.
	Watchdog time.Duration
	// Run is the main-phase virtual duration; Quiesce is the drain
	// phase after the workload shuts down. Quiesce must exceed the
	// longest timer horizon (TCP retransmission give-up).
	Run, Quiesce time.Duration

	// TCP/host knobs (zero = harness defaults, tuned for a LAN RTT).
	MinRTO time.Duration
	MSL    time.Duration

	// TraceSampleEvery arms per-nqe span tracing on both hosts (every
	// Nth operation; 0 runs untraced). Tracing uses the sim clock and
	// counter-based sampling, so traced runs stay deterministic.
	TraceSampleEvery int

	// Shards is the channel/stack shard count both hosts run with (the
	// journal version's multi-queue NSM). 0 uses the harness default of
	// 2 so every scenario exercises the sharded datapath; -1 pins the
	// conference paper's legacy single-queue channel.
	Shards int
}

// Flap is one scheduled link outage.
type Flap struct {
	At     time.Duration
	Outage time.Duration
}

// MigrationPoint is one scheduled live migration of the server NSM.
type MigrationPoint struct {
	At time.Duration
	// CC is the successor's congestion control: "" keeps the donor's (a
	// pure build swap), anything else hot-swaps every live flow.
	CC string
	// FailAfter > 0 injects a restore fault once that many connections
	// have revived on the successor, forcing the abort path: the
	// migration falls back to crash-reboot semantics for the donor.
	FailAfter int
}

// ConnReport is the post-run record of one workload connection.
type ConnReport struct {
	ID          int
	Established bool
	EstErr      error
	Closed      bool
	CloseErr    error
	SentBytes   int    // accepted by the socket API
	EchoedBytes int    // received back
	PayloadLen  int    // intended transfer size
	Integrity   string // non-empty when the echo diverged from the payload
}

// Result is everything a run produces, for invariant checking and
// determinism comparison.
type Result struct {
	Seed  uint64
	Trace []string
	Conns []ConnReport

	L12, L21   netsim.LinkStats
	Sw1, Sw2   vswitch.Stats
	Eng1, Eng2 hypervisor.EngineStats
	Pending    int
	Restarts   int

	// Migrated and MigAborted count the server module's completed and
	// aborted live migrations; MigConns and MigStall accumulate what the
	// completed cutovers moved and stalled. ServerStats is the final
	// serving stack's counters — after a migration, the successor's —
	// so the determinism contract covers post-handoff protocol behavior
	// (seq spaces, retransmits, CC evolution) byte for byte.
	Migrated    int
	MigAborted  int
	MigConns    int
	MigStall    time.Duration
	ServerStats stack.Stats

	// Spans holds both hosts' completed pipeline spans, formatted with
	// their hop names and virtual-time offsets (empty unless the
	// profile set TraceSampleEvery). Formatted strings make the
	// determinism comparison byte-exact.
	Spans []string
}

const (
	chaosPort = 7777
	headerLen = 8 // conn id (4B) + body length (4B)
)

var (
	clientIP = ipv4.Addr{10, 0, 1, 1}
	serverIP = ipv4.Addr{10, 0, 2, 1}
)

type harness struct {
	prof Profile
	seed uint64

	loop     *sim.Loop
	h1, h2   *hypervisor.Host
	l12, l21 *netsim.Link
	client   *hypervisor.VM
	server   *hypervisor.VM

	frng *sim.RNG // fault draws (queue stalls)
	wrng *sim.RNG // workload shape (payload sizes and content)

	trace    []string
	conns    []*cconn
	recvBuf  []byte
	shutdown bool
	lfd      int32

	// Live-migration bookkeeping: donors holds every module the server
	// VM migrated away from (their registry scopes and dead stacks must
	// stay consistent), migrated/migAborted count outcomes.
	donors     []*hypervisor.NSM
	migrated   int
	migAborted int
	migConns   int
	migStall   time.Duration

	// framesBoot is the frame pool's outstanding count when the harness
	// was built; after quiesce it must be back there (checkPools).
	framesBoot int64

	// tableErr is the first inconsistency checkTables found in an
	// engine's mapping table while the workload ran, and tableLive the
	// mappings those checks saw (checkPools reports both).
	tableErr  string
	tableLive int

	// namesBoot is each host's full registry name set right after VM
	// creation; untraced scenarios re-check it after quiesce so NSM
	// restarts provably neither leak nor duplicate metric names.
	namesBoot map[string][]string
}

type cconn struct {
	id      int
	fd      int32
	payload []byte // header + body
	sent    int
	echoed  []byte

	established bool
	estErr      error
	closed      bool
	closeErr    error
	watchdog    sim.Handle
}

// srvConn tracks one accepted connection on the server.
type srvConn struct {
	fd      int32
	rcvd    int    // inbound byte count
	need    int    // total expected (header + body); -1 until parsed
	hdr     []byte // first bytes, until the header parses
	echo    []byte // bytes received but not yet echoed back
	closing bool
}

func (h *harness) tracef(format string, args ...interface{}) {
	h.trace = append(h.trace, fmt.Sprintf("%12d %s", int64(h.loop.Now()), fmt.Sprintf(format, args...)))
}

func newHarness(seed uint64, prof Profile) *harness {
	if prof.MinRTO == 0 {
		prof.MinRTO = 20 * time.Millisecond
	}
	if prof.MSL == 0 {
		prof.MSL = 50 * time.Millisecond
	}
	return &harness{
		prof:    prof,
		seed:    seed,
		loop:    sim.NewLoop(),
		frng:    sim.NewRNG(seed ^ 0x9e3779b97f4a7c15),
		wrng:    sim.NewRNG(seed ^ 0xbf58476d1ce4e5b9),
		recvBuf: make([]byte, 64<<10),

		framesBoot: framepool.Live(),
	}
}

// Run executes one seeded chaos scenario and returns its Result. It
// does not assert; Check applies the invariants.
func Run(seed uint64, prof Profile) *Result {
	return newHarness(seed, prof).run()
}

func (h *harness) run() *Result {
	prof := h.prof
	shards := prof.Shards
	if shards == 0 {
		shards = 2
	}
	if shards < 0 {
		shards = 0
	}
	// The two hosts share one huge-page pool, as a World's do.
	pages := shm.NewPool()
	mk := func(name string, id uint8) *hypervisor.Host {
		return hypervisor.NewHost(hypervisor.HostConfig{
			Name: name, Clock: h.loop, RNG: sim.NewRNG(h.seed + uint64(id)),
			HostID: id, Cores: 8, Shards: shards, HugePages: pages,
			MinRTO: prof.MinRTO, MSL: prof.MSL,
			TraceSampleEvery: prof.TraceSampleEvery,
		})
	}
	h.h1 = mk("chaos1", 1)
	h.h2 = mk("chaos2", 2)
	linkRNG := sim.NewRNG(h.seed)
	h.l12, h.l21 = netsim.Duplex(h.loop, linkRNG, prof.Link, h.h1.NIC, h.h2.NIC)
	h.h1.NIC.AttachWire(h.l12)
	h.h2.NIC.AttachWire(h.l21)

	spec := hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic"}
	var err error
	h.client, err = h.h1.CreateVM(hypervisor.VMConfig{Name: "cli", IP: clientIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
	if err != nil {
		panic(err)
	}
	h.server, err = h.h2.CreateVM(hypervisor.VMConfig{Name: "srv", IP: serverIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
	if err != nil {
		panic(err)
	}
	h.wireChannelFaults()
	h.namesBoot = map[string][]string{
		"h1": h.h1.Metrics.Names(),
		"h2": h.h2.Metrics.Names(),
	}
	h.loop.RunFor(50 * time.Millisecond) // NSM boot

	h.startServer()
	for i := 0; i < prof.Conns; i++ {
		i := i
		h.loop.AfterFunc(time.Duration(i)*prof.Spacing, func() { h.startConn(i) })
	}
	for _, f := range prof.Flaps {
		h.l12.ScheduleFlap(f.At, f.Outage)
		h.l21.ScheduleFlap(f.At, f.Outage)
	}
	for _, at := range prof.CrashAt {
		at := at
		h.loop.AfterFunc(at, func() {
			h.tracef("chaos: crash server NSM")
			h.h2.RestartNSM(h.server.NSM)
		})
	}
	for _, mp := range prof.Migrations {
		mp := mp
		h.loop.AfterFunc(mp.At, func() { h.migrateServer(mp) })
	}

	h.loop.RunFor(prof.Run)
	h.checkTables(-1)
	h.shutdown = true
	h.closeStragglers()
	h.loop.RunFor(prof.Quiesce)

	res := &Result{
		Seed:  h.seed,
		Trace: h.trace,
		L12:   h.l12.Stats(), L21: h.l21.Stats(),
		Sw1: h.h1.Switch.Stats(), Sw2: h.h2.Switch.Stats(),
		Eng1: h.h1.Engine.Stats(), Eng2: h.h2.Engine.Stats(),
		Pending:  h.loop.Pending(),
		Restarts: h.server.NSM.Restarts,

		Migrated: h.migrated, MigAborted: h.migAborted,
		MigConns: h.migConns, MigStall: h.migStall,
		ServerStats: h.server.NSM.Stack.Stats(),
	}
	for _, host := range []*hypervisor.Host{h.h1, h.h2} {
		for _, sp := range host.Tracer.Completed() {
			res.Spans = append(res.Spans, host.Name()+" "+sp.Format())
		}
	}
	for _, c := range h.conns {
		r := ConnReport{
			ID: c.id, Established: c.established, EstErr: c.estErr,
			Closed: c.closed, CloseErr: c.closeErr,
			SentBytes: c.sent, EchoedBytes: len(c.echoed), PayloadLen: len(c.payload),
		}
		if !bytes.HasPrefix(c.payload, c.echoed) {
			r.Integrity = fmt.Sprintf("echo of %d bytes is not a prefix of the %d-byte payload",
				len(c.echoed), len(c.payload))
		}
		res.Conns = append(res.Conns, r)
	}
	return res
}

// wireChannelFaults installs the queue-stall fault on every ring of
// both VM↔NSM channels, drawing from the fault RNG. An injected stall
// can swallow the very push whose completion would have been the next
// wakeup, which a kick-driven pipeline never recovers from on its own;
// recovering is the injector's job, so each stall also schedules one
// re-kick of all four ends of the stalled shard: faults delay work
// instead of wedging it.
func (h *harness) wireChannelFaults() {
	prob := h.prof.QueueStallProb
	if prob <= 0 {
		return
	}
	for _, vm := range []*hypervisor.VM{h.client, h.server} {
		for _, pair := range vm.Guest.Pairs() {
			for si := range pair.Shards {
				rekickArmed := false
				rekick := func() {
					rekickArmed = false
					pair.KickEngineVM(si)
					pair.KickEngineNSM(si)
					pair.KickNSM(si)
					pair.KickVM(si)
				}
				stall := func() bool {
					if !h.frng.Bernoulli(prob) {
						return false
					}
					if !rekickArmed {
						rekickArmed = true
						h.loop.AfterFunc(10*time.Microsecond, rekick)
					}
					return true
				}
				r := &pair.Shards[si]
				for _, q := range []*nkqueue.Queue{
					r.VMJob, r.VMCompletion, r.VMReceive,
					r.NSMJob, r.NSMCompletion, r.NSMReceive,
				} {
					q.SetPushStall(stall)
				}
			}
		}
	}
}

// startServer installs a listener that echoes every connection's bytes
// back and re-listens after an NSM crash kills it.
func (h *harness) startServer() {
	g := h.server.Guest
	var lfd int32
	lfd = g.Socket(guestlib.Callbacks{
		OnAcceptable: func() {
			for {
				fd, ok := g.Accept(lfd)
				if !ok {
					return
				}
				h.serveConn(fd)
			}
		},
		OnClose: func(err error) {
			h.tracef("server: listener closed (%v)", err)
			if !h.shutdown {
				h.startServer() // the module rebooted: open shop again
			}
		},
	})
	if err := g.Listen(lfd, chaosPort, 64); err != nil {
		panic(err)
	}
	h.lfd = lfd
	h.tracef("server: listening fd=%d", lfd)
}

func (h *harness) serveConn(fd int32) {
	g := h.server.Guest
	sc := &srvConn{fd: fd, need: -1}
	h.tracef("server: accepted fd=%d", fd)

	pushEcho := func() {
		for len(sc.echo) > 0 {
			n := g.Send(sc.fd, sc.echo)
			if n == 0 {
				return
			}
			sc.echo = sc.echo[n:]
		}
		if sc.need >= 0 && sc.rcvd == sc.need && !sc.closing {
			sc.closing = true
			h.tracef("server: fd=%d echoed %d bytes, closing", sc.fd, sc.need)
			g.Close(sc.fd)
		}
	}
	read := func() {
		for {
			n, eof := g.Recv(sc.fd, h.recvBuf)
			if n > 0 {
				sc.rcvd += n
				sc.echo = append(sc.echo, h.recvBuf[:n]...)
				if sc.need < 0 {
					sc.hdr = append(sc.hdr, h.recvBuf[:n]...)
					if len(sc.hdr) >= headerLen {
						sc.need = headerLen + int(binary.BigEndian.Uint32(sc.hdr[4:8]))
						sc.hdr = nil
					}
				}
			}
			if n == 0 {
				if eof && !sc.closing {
					// The client quit early (watchdog, reset): release
					// our side too.
					sc.closing = true
					g.Close(sc.fd)
				}
				return
			}
		}
	}
	g.SetCallbacks(fd, guestlib.Callbacks{
		// Echo after every drain: OnWritable alone only fires on a
		// stalled→writable transition, which never happens if the
		// first Send is never attempted.
		OnReadable: func() { read(); pushEcho() },
		OnWritable: pushEcho,
		OnClose: func(err error) {
			h.tracef("server: fd=%d closed (%v) after %d bytes", sc.fd, err, sc.rcvd)
		},
	})
	read()
	pushEcho()
}

// migrateServer live-migrates the module currently serving the server
// VM onto a fresh one, tracing the outcome. The guest-side workload is
// untouched: its descriptors, callbacks, and in-flight transfers ride
// the cutover.
func (h *harness) migrateServer(mp MigrationPoint) {
	nsm := h.server.NSM // the module at fire time: chained points follow successors
	h.tracef("chaos: migrate server NSM cc=%q failAfter=%d", mp.CC, mp.FailAfter)
	_, err := h.h2.MigrateNSM(nsm,
		hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: mp.CC},
		hypervisor.MigrateOptions{FailRestoreAfter: mp.FailAfter},
		func(m *hypervisor.Migration) {
			if m.Aborted {
				h.migAborted++
				h.tracef("chaos: migration aborted after %d conns (%v)", m.Conns, m.Err)
				return
			}
			h.migrated++
			h.migConns += m.Conns
			h.migStall += m.Stall
			h.donors = append(h.donors, m.From)
			h.tracef("chaos: migration complete vms=%d conns=%d stall=%v", m.VMs, m.Conns, m.Stall)
		})
	if err != nil {
		// The module was mid-boot after a crash, or already migrating:
		// the scenario keeps running, the point just records as refused.
		h.tracef("chaos: migration refused (%v)", err)
	}
}

// startConn opens workload connection i: send a framed payload, expect
// it echoed verbatim, close cleanly.
func (h *harness) startConn(i int) {
	h.checkTables(i)
	g := h.client.Guest
	body := make([]byte, 1+h.wrng.Intn(h.prof.MaxBody))
	for j := 0; j+8 <= len(body); j += 8 {
		binary.BigEndian.PutUint64(body[j:], h.wrng.Uint64())
	}
	c := &cconn{id: i, payload: make([]byte, headerLen+len(body))}
	binary.BigEndian.PutUint32(c.payload[0:], uint32(i))
	binary.BigEndian.PutUint32(c.payload[4:], uint32(len(body)))
	copy(c.payload[headerLen:], body)
	h.conns = append(h.conns, c)

	pushMore := func() {
		if c.closed || !c.established {
			return
		}
		for c.sent < len(c.payload) {
			n := g.Send(c.fd, c.payload[c.sent:])
			if n == 0 {
				return
			}
			c.sent += n
		}
	}
	c.fd = g.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err != nil {
				c.estErr = err
				h.tracef("conn %d: establish failed (%v)", c.id, err)
				return
			}
			c.established = true
			h.tracef("conn %d: established, sending %d bytes", c.id, len(c.payload))
			pushMore()
		},
		OnWritable: pushMore,
		OnReadable: func() {
			for {
				n, eof := g.Recv(c.fd, h.recvBuf)
				if n > 0 {
					c.echoed = append(c.echoed, h.recvBuf[:n]...)
				}
				if n == 0 {
					if eof && !c.closed {
						h.tracef("conn %d: echo complete (%d bytes), closing", c.id, len(c.echoed))
						g.Close(c.fd)
					}
					return
				}
			}
		},
		OnClose: func(err error) {
			c.closed = true
			c.closeErr = err
			c.watchdog.Stop()
			h.tracef("conn %d: closed (%v) sent=%d echoed=%d", c.id, err, c.sent, len(c.echoed))
		},
	})
	h.tracef("conn %d: connect fd=%d", c.id, c.fd)
	if err := g.Connect(c.fd, serverIP, chaosPort); err != nil {
		c.estErr = err
		return
	}
	c.watchdog = h.loop.AfterFunc(h.prof.Watchdog, func() {
		if !c.closed {
			h.tracef("conn %d: watchdog close", c.id)
			g.Close(c.fd)
		}
	})
}

// checkTables checks both engines' mapping tables while the workload's
// mappings are live — as connection i starts, or at the end of the
// workload when i < 0 — since after quiesce they are empty.
func (h *harness) checkTables(i int) {
	for _, host := range []*hypervisor.Host{h.h1, h.h2} {
		h.tableLive += host.Engine.Mappings()
		if err := host.Engine.CheckFlowAffinity(); err != nil && h.tableErr == "" {
			when := "at the end of the workload"
			if i >= 0 {
				when = fmt.Sprintf("as conn %d started", i)
			}
			h.tableErr = fmt.Sprintf("engine %s %s: %v", host.Name(), when, err)
		}
	}
}

// closeStragglers force-closes anything the workload left open so the
// quiesce phase can drain to zero.
func (h *harness) closeStragglers() {
	for _, c := range h.conns {
		if !c.closed {
			h.client.Guest.Close(c.fd)
		}
	}
	h.server.Guest.Close(h.lfd)
}

// A Reporter receives invariant violations: a *testing.T, or a seed
// sweep that buckets them instead of failing.
type Reporter interface {
	Helper()
	Errorf(format string, args ...interface{})
}

// Check applies the post-run invariants that live in the Result.
func Check(t Reporter, h *Result) {
	t.Helper()
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Errorf("[seed %d] "+format, append([]interface{}{h.Seed}, args...)...)
	}

	established := 0
	for _, c := range h.Conns {
		terminal := c.Closed || (!c.Established && c.EstErr != nil)
		if !terminal {
			fail("conn %d not terminal: established=%v closed=%v", c.ID, c.Established, c.Closed)
		}
		if c.Established {
			established++
		}
		if c.Integrity != "" {
			fail("conn %d integrity: %s", c.ID, c.Integrity)
		}
		if c.Closed && c.CloseErr == nil && c.EstErr == nil {
			if c.EchoedBytes != c.PayloadLen || c.SentBytes != c.PayloadLen {
				fail("conn %d closed clean but sent %d, echoed %d of %d bytes",
					c.ID, c.SentBytes, c.EchoedBytes, c.PayloadLen)
			}
		}
	}
	if established == 0 {
		fail("no connection ever established — the scenario exercised nothing")
	}

	if h.Pending != 0 {
		fail("event loop still holds %d timers after quiesce", h.Pending)
	}

	for dir, ls := range map[string]netsim.LinkStats{"h1→h2": h.L12, "h2→h1": h.L21} {
		if ls.Offered != ls.TxFrames+ls.LossDrops+ls.QueueDrops+ls.DownDrops {
			fail("link %s: offered %d != tx %d + loss %d + queue %d + down %d",
				dir, ls.Offered, ls.TxFrames, ls.LossDrops, ls.QueueDrops, ls.DownDrops)
		}
	}
	for name, sw := range map[string]vswitch.Stats{"h1": h.Sw1, "h2": h.Sw2} {
		if sw.RxFrames != sw.Forwarded+sw.Flooded+sw.Dropped {
			fail("switch %s: rx %d != fwd %d + flood %d + drop %d",
				name, sw.RxFrames, sw.Forwarded, sw.Flooded, sw.Dropped)
		}
	}
}

// checkPools verifies the leak invariants that need live objects (the
// Result only carries value snapshots): huge-page chunks, frame
// buffers, engine mappings, and stack connection tables.
func (h *harness) checkPools(t Reporter) {
	t.Helper()
	// Every frame drawn from the pool during the scenario has been
	// released: with the loop empty no frame is in flight, so anything
	// still out was dropped somewhere that is not a release point —
	// delivered, lost, flooded, crashed into, or migrated past.
	if n := framepool.Live() - h.framesBoot; n != 0 {
		t.Errorf("[seed %d] %d frame buffers not released after quiesce", h.seed, n)
	}
	for _, vm := range []*hypervisor.VM{h.client, h.server} {
		for i, pair := range vm.Guest.Pairs() {
			if pair.Pages.FreeCount() != pair.Pages.Chunks() {
				t.Errorf("[seed %d] %s pair %d leaked chunks: %d free of %d",
					h.seed, vm.Name, i, pair.Pages.FreeCount(), pair.Pages.Chunks())
			}
			// With the refcounted span datapath a chunk can leak by
			// reference too: every Retain must be matched even when the
			// final Free happens on conn teardown or NSM crash.
			if n := pair.Pages.LiveRefs(); n != 0 {
				t.Errorf("[seed %d] %s pair %d has %d live chunk refs after quiesce",
					h.seed, vm.Name, i, n)
			}
			// Units are backed on first touch and never released, so the
			// count after quiesce is the most the scenario ever held.
			if n := pair.Pages.Resident(); n > pair.Pages.Units() {
				t.Errorf("[seed %d] %s pair %d backs %d units, beyond its %d",
					h.seed, vm.Name, i, n, pair.Pages.Units())
			}
		}
	}
	// A pair's rings hold slots only while elements occupy them: after
	// quiesce every ring is empty, and every segment of the pair's slot
	// reserve is either held by a ring or on its free list, none lost
	// and none in both.
	for _, vm := range []*hypervisor.VM{h.client, h.server} {
		for i, pair := range vm.Guest.Pairs() {
			for si, r := range pair.Shards {
				for qi, q := range []*nkqueue.Queue{r.VMJob, r.VMCompletion, r.VMReceive, r.NSMJob, r.NSMCompletion, r.NSMReceive} {
					if n := q.Len(); n != 0 {
						t.Errorf("[seed %d] %s pair %d shard %d queue %d holds %d elements after quiesce",
							h.seed, vm.Name, i, si, qi, n)
					}
				}
			}
			res := pair.Reserve
			if held, free, slabs := res.Held(), res.Free(), res.Slabs(); held+free != slabs*res.SlabSegments() {
				t.Errorf("[seed %d] %s pair %d's slot reserve: %d segments held + %d free, want its %d slabs × %d",
					h.seed, vm.Name, i, held, free, slabs, res.SlabSegments())
			}
		}
	}
	// A pool carves its pairs' units from whole pages, one page at a
	// time, and never takes a unit back. A pair lives as long as its
	// host — MigrateNSM and RestartNSM keep the VM's pair — so each pool's
	// pages are exactly those the resident units of every pair on it
	// fill, with no slack page, even after a migration or restart.
	resident := map[*shm.Pool]int{h.h1.HugePages: 0, h.h2.HugePages: 0} // bytes
	for host, vm := range map[*hypervisor.Host]*hypervisor.VM{h.h1: h.client, h.h2: h.server} {
		for _, pair := range vm.Guest.Pairs() {
			resident[host.HugePages] += pair.Pages.Resident() * pair.Pages.UnitSize()
		}
	}
	for pool, bytes := range resident {
		if got, want := pool.Pages(), (bytes+shm.PageSize-1)/shm.PageSize; got != want {
			t.Errorf("[seed %d] a huge-page pool backs %d pages for %d KiB of resident units, want %d",
				h.seed, got, bytes>>10, want)
		}
	}
	for name, host := range map[string]*hypervisor.Host{"h1": h.h1, "h2": h.h2} {
		if n := host.Engine.Mappings(); n != 0 {
			t.Errorf("[seed %d] engine %s holds %d fd↔cID mappings after quiesce", h.seed, name, n)
		}
		if err := host.Engine.CheckFlowAffinity(); err != nil {
			t.Errorf("[seed %d] engine %s: %v", h.seed, name, err)
		}
	}
	// The table checks made while the workload ran: every fd and cID
	// maps to one record, on a shard of its channel.
	if h.tableErr != "" {
		t.Errorf("[seed %d] %s", h.seed, h.tableErr)
	}
	if h.tableLive == 0 {
		t.Errorf("[seed %d] the table checks during the workload saw no live mapping", h.seed)
	}
	for _, nsm := range []*hypervisor.NSM{h.client.NSM, h.server.NSM} {
		if n := nsm.Stack.ConnCount(); n != 0 {
			t.Errorf("[seed %d] stack %s holds %d connections after quiesce", h.seed, nsm.Stack.Name(), n)
		}
	}
	// Migration donors: every connection either moved to the successor
	// or was dropped at cutover — a donor stack retaining state after
	// the handoff would be a leak no tenant can ever reach.
	for _, donor := range h.donors {
		if !donor.Stack.Dead() {
			t.Errorf("[seed %d] donor stack %s still alive after migration", h.seed, donor.Stack.Name())
		}
		if n := donor.Stack.ConnCount(); n != 0 {
			t.Errorf("[seed %d] donor stack %s holds %d connections after handoff", h.seed, donor.Stack.Name(), n)
		}
	}
}

// checkTelemetry verifies the unified registry against ground truth
// after a run. Three families of invariant:
//
//   - Queue conservation: per ring, everything pushed was popped or is
//     still occupying the ring (the API-level counters are maintained
//     independently of the ring cursors, so drift catches accounting
//     bugs rather than restating them).
//   - Registry/ledger agreement: snapshot values must equal the ad-hoc
//     stats structs they mirror — switch and engine gauges, and each
//     stack's drop/retransmit counters (which also proves last-wins
//     re-registration survived any NSM restart).
//   - Snapshot-internal conservation: the per-queue pushed/popped/depth
//     gauges inside one snapshot must balance.
func (h *harness) checkTelemetry(t Reporter) {
	t.Helper()
	for _, vm := range []*hypervisor.VM{h.client, h.server} {
		for i, pair := range vm.Guest.Pairs() {
			pair.EnsureShards()
			for si := range pair.Shards {
				r := &pair.Shards[si]
				queues := map[string]*nkqueue.Queue{
					"vm_job": r.VMJob, "vm_completion": r.VMCompletion, "vm_receive": r.VMReceive,
					"nsm_job": r.NSMJob, "nsm_completion": r.NSMCompletion, "nsm_receive": r.NSMReceive,
				}
				for name, q := range queues {
					if q.Pushed() != q.Popped()+uint64(q.Len()) {
						t.Errorf("[seed %d] %s pair %d shard %d queue %s: pushed %d != popped %d + len %d",
							h.seed, vm.Name, i, si, name, q.Pushed(), q.Popped(), q.Len())
					}
				}
			}
		}
	}
	for name, host := range map[string]*hypervisor.Host{"h1": h.h1, "h2": h.h2} {
		snap := host.Snapshot()
		sw := host.Switch.Stats()
		eng := host.Engine.Stats()
		counters := map[string]telemetry.Counter{
			"switch.rx_frames":          sw.RxFrames,
			"switch.forwarded":          sw.Forwarded,
			"switch.flooded":            sw.Flooded,
			"switch.dropped":            sw.Dropped,
			"engine.nqes_vm_to_nsm":     eng.NqesVMToNSM,
			"engine.nqes_nsm_to_vm":     eng.NqesNSMToVM,
			"engine.translated":         eng.Translated,
			"engine.bad_elements":       eng.BadElements,
			"engine.discarded_elements": eng.DiscardedElements,
		}
		for metric, want := range counters {
			if got := snap.Counter(metric); got != uint64(want) {
				t.Errorf("[seed %d] host %s: registry %s = %d, ground truth %d",
					h.seed, name, metric, got, want)
			}
		}
		for gname, v := range snap.Gauges {
			if !strings.HasSuffix(gname, ".pushed") {
				continue
			}
			base := strings.TrimSuffix(gname, ".pushed")
			if v != snap.Gauges[base+".popped"]+snap.Gauges[base+".depth"] {
				t.Errorf("[seed %d] host %s: snapshot %s: pushed %d != popped %d + depth %d",
					h.seed, name, base, v, snap.Gauges[base+".popped"], snap.Gauges[base+".depth"])
			}
		}
	}
	for _, nsm := range []*hypervisor.NSM{h.client.NSM, h.server.NSM} {
		st := nsm.Stack.Stats()
		snap := h.h1.Snapshot()
		if nsm == h.server.NSM {
			snap = h.h2.Snapshot()
		}
		prefix := fmt.Sprintf("nsm%d.stack.", nsm.ID)
		counters := map[string]telemetry.Counter{
			prefix + "dropped_no_route":   st.DroppedNoRoute,
			prefix + "dropped_bad_packet": st.DroppedBadPacket,
			prefix + "dropped_no_socket":  st.DroppedNoSocket,
			prefix + "dropped_dead":       st.DroppedDead,
			prefix + "tcp_retransmits":    st.TCPRetransmits,
			prefix + "frames_in":          st.FramesIn,
			prefix + "frames_out":         st.FramesOut,
		}
		for metric, want := range counters {
			if got := snap.Counter(metric); got != uint64(want) {
				t.Errorf("[seed %d] registry %s = %d, stack ledger %d", h.seed, metric, got, want)
			}
		}

		// Per-shard connection gauges: the registry must hold exactly
		// one "s<i>.conns" per configured shard — no stale shard names
		// surviving an NSM restart — and each must equal the live
		// stack's own shard count.
		host := h.h1
		if nsm == h.server.NSM {
			host = h.h2
		}
		want := map[string]int64{}
		for i := 0; i < nsm.Stack.RxShards(); i++ {
			want[fmt.Sprintf("%ss%d.conns", prefix, i)] = int64(nsm.Stack.ShardConnCount(i))
		}
		got := map[string]bool{}
		for _, n := range host.Metrics.Names() {
			if strings.HasPrefix(n, prefix+"s") && strings.HasSuffix(n, ".conns") {
				got[n] = true
			}
		}
		for n, v := range want {
			if !got[n] {
				t.Errorf("[seed %d] registry missing per-shard gauge %s", h.seed, n)
			} else if g := snap.Gauge(n); g != v {
				t.Errorf("[seed %d] registry %s = %d, stack ledger %d", h.seed, n, g, v)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("[seed %d] registry holds stale per-shard gauge %s (stack has %d shards)",
					h.seed, n, nsm.Stack.RxShards())
			}
		}
	}

	// Telemetry conservation across the old and new registry scopes:
	// the donor's scope survives a migration (operators can still read
	// the decommissioned module's final counters), but its live gauges
	// must sample the dead stack as empty — a nonzero donor conn gauge
	// after handoff means a connection escaped the cutover.
	for _, donor := range h.donors {
		snap := h.h2.Snapshot()
		prefix := fmt.Sprintf("nsm%d.stack.", donor.ID)
		for i := 0; i < donor.Stack.RxShards(); i++ {
			name := fmt.Sprintf("%ss%d.conns", prefix, i)
			if g := snap.Gauge(name); g != 0 {
				t.Errorf("[seed %d] donor gauge %s = %d after handoff, want 0", h.seed, name, g)
			}
		}
		st := donor.Stack.Stats()
		for metric, want := range map[string]telemetry.Counter{
			prefix + "frames_in":  st.FramesIn,
			prefix + "frames_out": st.FramesOut,
		} {
			if got := snap.Counter(metric); got != uint64(want) {
				t.Errorf("[seed %d] donor registry %s = %d, frozen ledger %d", h.seed, metric, got, want)
			}
		}
	}

	// Name-set stability: everything registers at boot, and restarts
	// re-register last-wins under identical names, so the registry's
	// name set after quiesce must equal the boot capture. (Traced runs
	// create span histograms lazily mid-run, so only untraced profiles
	// pin the full set.) A migration legitimately adds the successor
	// module's scope, so those profiles check containment instead: every
	// boot name must survive, with growth only from the new scopes.
	if h.prof.TraceSampleEvery == 0 {
		for name, host := range map[string]*hypervisor.Host{"h1": h.h1, "h2": h.h2} {
			now := host.Metrics.Names()
			boot := h.namesBoot[name]
			if len(h.prof.Migrations) > 0 {
				set := make(map[string]bool, len(now))
				for _, n := range now {
					set[n] = true
				}
				for _, n := range boot {
					if !set[n] {
						t.Errorf("[seed %d] host %s registry lost boot name %q across migration", h.seed, name, n)
					}
				}
				continue
			}
			if len(now) != len(boot) {
				t.Errorf("[seed %d] host %s registry grew from %d to %d names across the run (restart leak?)",
					h.seed, name, len(boot), len(now))
				continue
			}
			for i := range now {
				if now[i] != boot[i] {
					t.Errorf("[seed %d] host %s registry name drift: %q vs boot %q", h.seed, name, now[i], boot[i])
					break
				}
			}
		}
	}
}

// RunAndReport executes the scenario and reports every invariant
// violation to r.
func RunAndReport(r Reporter, seed uint64, prof Profile) *Result {
	r.Helper()
	h := newHarness(seed, prof)
	res := h.run()
	Check(r, res)
	h.checkPools(r)
	h.checkTelemetry(r)
	// Without a crash or a migration nothing resets the engine's tables,
	// so an element it rejects found its mapping retired too early (or
	// never installed). checkPools' mapping count catches the opposite: a
	// mapping that never retires.
	if len(prof.CrashAt) == 0 && len(prof.Migrations) == 0 {
		if n := res.Eng1.BadElements + res.Eng2.BadElements; n != 0 {
			r.Errorf("[seed %d] engines rejected %d elements", seed, n)
		}
	}
	return res
}
