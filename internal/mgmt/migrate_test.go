package mgmt

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/pricing"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

var (
	clientIP = ipv4.Addr{10, 0, 1, 1}
	serverIP = ipv4.Addr{10, 0, 2, 1}

	errUntouched = errors.New("close callback never fired")
)

// twoHosts is the paper's testbed: two hosts back to back on 40 GbE.
func twoHosts(t *testing.T) (*sim.Loop, *hypervisor.Host, *hypervisor.Host) {
	t.Helper()
	loop := sim.NewLoop()
	mk := func(name string, id uint8) *hypervisor.Host {
		return hypervisor.NewHost(hypervisor.HostConfig{
			Name: name, Clock: loop, RNG: sim.NewRNG(uint64(id)),
			HostID: id, Cores: 8,
			MinRTO: 20 * time.Millisecond, MSL: 50 * time.Millisecond,
		})
	}
	h1, h2 := mk("host1", 1), mk("host2", 2)
	l12, l21 := netsim.Duplex(loop, sim.NewRNG(99), netsim.Testbed40G(), h1.NIC, h2.NIC)
	h1.NIC.AttachWire(l12)
	h2.NIC.AttachWire(l21)
	return loop, h1, h2
}

// echoServer greedily accepts on port and echoes everything back,
// buffering through backpressure.
func echoServer(t *testing.T, g *guestlib.GuestLib, port uint16, backlog int) {
	t.Helper()
	lfd := g.Socket(guestlib.Callbacks{})
	g.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		for {
			fd, ok := g.Accept(lfd)
			if !ok {
				return
			}
			var pending []byte
			flush := func() {
				for len(pending) > 0 {
					n := g.Send(fd, pending)
					if n == 0 {
						return
					}
					pending = pending[n:]
				}
			}
			buf := make([]byte, 16384)
			g.SetCallbacks(fd, guestlib.Callbacks{
				OnReadable: func() {
					for {
						n, _ := g.Recv(fd, buf)
						if n == 0 {
							break
						}
						pending = append(pending, buf[:n]...)
					}
					flush()
				},
				OnWritable: flush,
			})
		}
	}})
	if err := g.Listen(lfd, port, backlog); err != nil {
		t.Fatal(err)
	}
}

// echoClient dials the server and pushes payload through in paced
// chunks, accumulating the echo.
type echoClient struct {
	fd       int32
	sent     int
	echoed   []byte
	closeErr error
}

func startEchoClient(loop *sim.Loop, g *guestlib.GuestLib, dst ipv4.Addr, port uint16, payload []byte, pace time.Duration) (*echoClient, error) {
	c := &echoClient{closeErr: errUntouched}
	buf := make([]byte, 16384)
	c.fd = g.Socket(guestlib.Callbacks{
		OnReadable: func() {
			for {
				n, _ := g.Recv(c.fd, buf)
				if n == 0 {
					return
				}
				c.echoed = append(c.echoed, buf[:n]...)
			}
		},
		OnClose: func(err error) { c.closeErr = err },
	})
	if err := g.Connect(c.fd, dst, port); err != nil {
		return nil, err
	}
	var tick func()
	tick = func() {
		if c.sent < len(payload) {
			end := c.sent + 2048
			if end > len(payload) {
				end = len(payload)
			}
			c.sent += g.Send(c.fd, payload[c.sent:end])
		}
		if c.sent < len(payload) {
			loop.AfterFunc(pace, tick)
		}
	}
	loop.AfterFunc(pace, tick)
	return c, nil
}

// TestRollingUpgradeServing100VMs is the issue's scale gate: one module
// multiplexes 100 tenant VMs, each mid-way through a paced echo
// transfer, and a rolling upgrade migrates the module to a new build
// (hot-swapping every flow's congestion control to BBR). Zero
// connection loss: every tenant's echo completes byte-exactly, no close
// callback fires, and the single migration record bills all 100 VMs.
func TestRollingUpgradeServing100VMs(t *testing.T) {
	const tenants = 100
	loop, h1, h2 := twoHosts(t)

	server, err := h2.CreateVM(hypervisor.VMConfig{
		Name: "server", IP: serverIP, Mode: hypervisor.ModeNetKernel,
		NSM: hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var vms []*hypervisor.VM
	var shared *hypervisor.NSM
	for i := 0; i < tenants; i++ {
		spec := hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic", ShareWith: shared}
		vm, err := h1.CreateVM(hypervisor.VMConfig{
			Name: "tenant", IP: clientIP, Mode: hypervisor.ModeNetKernel, NSM: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if shared == nil {
			shared = vm.NSM
		}
		vms = append(vms, vm)
	}
	loop.RunFor(50 * time.Millisecond) // module boot
	echoServer(t, server.Guest, 7000, 256)

	payload := bytes.Repeat([]byte("netkernel migration payload blk "), 4096) // 128 KB
	clients := make([]*echoClient, tenants)
	for i, vm := range vms {
		// Stagger dials so the listener backlog never overflows.
		c, err := startEchoClient(loop, vm.Guest, serverIP, 7000, payload, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		loop.RunFor(100 * time.Microsecond)
	}
	loop.RunFor(20 * time.Millisecond) // everyone mid-transfer

	pricer := pricing.DefaultMigrationPricer()
	up := NewRollingUpgrade(h1, func(n *hypervisor.NSM) (hypervisor.NSMSpec, bool) {
		return hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "bbr"}, true
	}, hypervisor.MigrateOptions{}, pricer)
	if up.Pending() != 1 {
		t.Fatalf("host1 has %d modules queued, want the 1 shared module", up.Pending())
	}
	finished := false
	up.Start(func(*RollingUpgrade) { finished = true })
	for i := 0; i < 50 && !finished; i++ {
		loop.RunFor(10 * time.Millisecond)
	}
	if !finished {
		t.Fatal("rolling upgrade never completed")
	}
	loop.RunFor(2 * time.Second) // drain the transfers

	if len(up.Migrations) != 1 || up.Skipped != 0 {
		t.Fatalf("migrations=%d skipped=%d, want 1/0", len(up.Migrations), up.Skipped)
	}
	m := up.Migrations[0]
	if m.Aborted {
		t.Fatalf("migration aborted: %v", m.Err)
	}
	if m.VMs != tenants {
		t.Fatalf("migration moved %d VMs, want %d", m.VMs, tenants)
	}
	if m.Conns < tenants {
		t.Fatalf("migration moved %d conns, want ≥ %d live tenant flows", m.Conns, tenants)
	}
	if up.Bill <= 0 {
		t.Fatal("a 100-VM migration billed nothing")
	}
	if want := pricer.Price(MigrationBill(m)); up.Bill != want {
		t.Fatalf("Bill = %v, want %v", up.Bill, want)
	}
	for i, vm := range vms {
		if vm.NSM != m.To {
			t.Fatalf("tenant %d not rebound to the successor", i)
		}
	}
	if m.To.CC != "bbr" {
		t.Fatalf("successor CC = %q, want the hot-swapped bbr", m.To.CC)
	}

	lost := 0
	for i, c := range clients {
		if c.closeErr != errUntouched {
			t.Errorf("tenant %d connection closed across migration: %v", i, c.closeErr)
			lost++
			continue
		}
		if !bytes.Equal(c.echoed, payload) {
			t.Errorf("tenant %d echo not byte-exact: %d of %d bytes", i, len(c.echoed), len(payload))
			lost++
		}
		if lost > 3 {
			t.Fatal("... and more")
		}
	}
}

// TestConsolidateBillsOnlyExpensiveForms drives the consolidation
// planner: of two modules on the host, only the one whose form bills
// above the target migrates; congestion control is preserved.
func TestConsolidateBillsOnlyExpensiveForms(t *testing.T) {
	loop, h1, h2 := twoHosts(t)
	server, err := h2.CreateVM(hypervisor.VMConfig{
		Name: "server", IP: serverIP, Mode: hypervisor.ModeNetKernel,
		NSM: hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	vmCostly, err := h1.CreateVM(hypervisor.VMConfig{
		Name: "costly", IP: clientIP, Mode: hypervisor.ModeNetKernel,
		NSM: hypervisor.NSMSpec{Form: hypervisor.FormUnikernel, CC: "dctcp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	vmCheap, err := h1.CreateVM(hypervisor.VMConfig{
		Name: "cheap", IP: ipv4.Addr{10, 0, 1, 2}, Mode: hypervisor.ModeNetKernel,
		NSM: hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.RunFor(300 * time.Millisecond) // unikernel boot
	echoServer(t, server.Guest, 7000, 16)
	payload := bytes.Repeat([]byte("consolidate"), 2048)
	c1, err := startEchoClient(loop, vmCostly.Guest, serverIP, 7000, payload, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	loop.RunFor(5 * time.Millisecond)

	rates := pricing.PerInstance{
		Default: pricing.USD(0.01),
		HourlyByForm: map[string]pricing.MicroUSD{
			"unikernel": pricing.USD(0.02),
			"module":    pricing.USD(0.004),
		},
	}
	cheapNSM := vmCheap.NSM
	up := Consolidate(h1, hypervisor.FormModule, rates, hypervisor.MigrateOptions{}, pricing.DefaultMigrationPricer())
	finished := false
	up.Start(func(*RollingUpgrade) { finished = true })
	for i := 0; i < 50 && !finished; i++ {
		loop.RunFor(10 * time.Millisecond)
	}
	if !finished {
		t.Fatal("consolidation never completed")
	}
	loop.RunFor(time.Second)

	if len(up.Migrations) != 1 || up.Skipped != 1 {
		t.Fatalf("migrations=%d skipped=%d, want 1 move (unikernel) and 1 skip (module)", len(up.Migrations), up.Skipped)
	}
	m := up.Migrations[0]
	if m.Aborted || m.To.Form != hypervisor.FormModule || m.To.CC != "dctcp" {
		t.Fatalf("consolidation produced form=%v cc=%q aborted=%v, want module/dctcp/false", m.To.Form, m.To.CC, m.Aborted)
	}
	if vmCheap.NSM != cheapNSM {
		t.Fatal("already-cheap module was migrated")
	}
	if c1.closeErr != errUntouched || !bytes.Equal(c1.echoed, payload) {
		t.Fatalf("consolidated tenant lost data: err=%v echoed=%d/%d", c1.closeErr, len(c1.echoed), len(payload))
	}
}

// Pending returns how many modules are still waiting to migrate.
func (u *RollingUpgrade) Pending() int { return len(u.queue) }
