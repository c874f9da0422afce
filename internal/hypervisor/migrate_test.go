package hypervisor

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/proto/ipv4"
)

// echoSrv wires a byte-echo server on g: every accepted connection's
// bytes are pushed straight back, and the accepted fd count and close
// errors are recorded.
type echoSrv struct {
	lfd       int32
	accepted  int
	closeErrs []error
}

func startEcho(t *testing.T, g *guestlib.GuestLib, port uint16) *echoSrv {
	t.Helper()
	es := &echoSrv{}
	var lfd int32
	lfd = g.Socket(guestlib.Callbacks{OnAcceptable: func() {
		for {
			fd, ok := g.Accept(lfd)
			if !ok {
				return
			}
			es.accepted++
			var pending []byte
			buf := make([]byte, 32<<10)
			push := func() {
				for len(pending) > 0 {
					n := g.Send(fd, pending)
					if n == 0 {
						return
					}
					pending = pending[n:]
				}
			}
			read := func() {
				for {
					n, eof := g.Recv(fd, buf)
					if n > 0 {
						pending = append(pending, buf[:n]...)
					}
					if n == 0 {
						if eof {
							g.Close(fd)
						}
						return
					}
				}
			}
			g.SetCallbacks(fd, guestlib.Callbacks{
				OnReadable: func() { read(); push() },
				OnWritable: push,
				OnClose:    func(err error) { es.closeErrs = append(es.closeErrs, err) },
			})
		}
	}})
	if err := g.Listen(lfd, port, 16); err != nil {
		t.Fatal(err)
	}
	es.lfd = lfd
	return es
}

// pacedSender drips payload into fd a few KB at a time so a transfer
// spans many milliseconds of virtual time — long enough to migrate the
// serving NSM mid-stream.
func pacedSender(c *cluster, g *guestlib.GuestLib, fd int32, payload []byte) {
	sent := 0
	var pump func()
	pump = func() {
		for sent < len(payload) {
			end := sent + 4096
			if end > len(payload) {
				end = len(payload)
			}
			n := g.Send(fd, payload[sent:end])
			sent += n
			if n == 0 {
				break // flow control: retry next tick
			}
		}
		if sent < len(payload) {
			c.loop.AfterFunc(2*time.Millisecond, pump)
		}
	}
	pump()
}

// TestNSMMigrateLive migrates the server-side NSM in the middle of a
// paced bulk transfer and proves the handoff is invisible: the full
// echo arrives byte-exact, neither guest sees an error or reset, the
// donor's stack dies, the successor owns the tenant, and no
// shared-memory chunk leaks.
func TestNSMMigrateLive(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	srv := startEcho(t, vmb.Guest, 80)

	cliG := vma.Guest
	payload := make([]byte, 400<<10)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	var echoed []byte
	var estErr error = errSentinel
	var closeErr error = errSentinel
	buf := make([]byte, 64<<10)
	var cfd int32
	cfd = cliG.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) { estErr = err },
		OnReadable: func() {
			for {
				n, _ := cliG.Recv(cfd, buf)
				if n == 0 {
					return
				}
				echoed = append(echoed, buf[:n]...)
			}
		},
		OnClose: func(err error) { closeErr = err },
	})
	if err := cliG.Connect(cfd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(100 * time.Millisecond)
	if estErr != nil {
		t.Fatalf("OnEstablished: %v", estErr)
	}
	pacedSender(c, cliG, cfd, payload)
	c.loop.RunFor(60 * time.Millisecond) // well inside the transfer

	old := vmb.NSM
	var rec *Migration
	m, err := c.h2.MigrateNSM(old, moduleNSM("cubic"), MigrateOptions{}, func(mm *Migration) { rec = mm })
	if err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(2 * time.Second) // boot + cutover + rest of the transfer

	if rec == nil {
		t.Fatal("migration callback never fired")
	}
	if rec != m || rec.Aborted {
		t.Fatalf("migration aborted: %v", rec.Err)
	}
	if rec.Conns < 1 || rec.VMs != 1 {
		t.Fatalf("migration moved %d conns across %d VMs, want >=1 conns of 1 VM", rec.Conns, rec.VMs)
	}
	if rec.Stall <= 0 || rec.ResumeAt.Sub(rec.CutoverAt) != rec.Stall {
		t.Fatalf("stall accounting broken: stall=%v cutover=%v resume=%v", rec.Stall, rec.CutoverAt, rec.ResumeAt)
	}
	if want := 200*time.Microsecond + time.Duration(rec.Conns)*2*time.Microsecond; rec.Stall != want {
		t.Fatalf("stall %v for %d conns, want 200µs + 2µs per conn = %v", rec.Stall, rec.Conns, want)
	}
	if vmb.NSM != rec.To || vmb.NSM == old {
		t.Fatal("VM still points at the donor module")
	}
	if !old.Stack.Dead() || vmb.NSM.Stack.Dead() {
		t.Fatal("donor stack must be dead and successor live")
	}
	if got := c.h2.Engine.Stats().NSMResets; got != 0 {
		t.Fatalf("engine saw %d NSM resets during a live migration, want 0", got)
	}
	if !bytes.Equal(echoed, payload) {
		t.Fatalf("echo diverged across migration: got %d bytes, want %d byte-exact", len(echoed), len(payload))
	}
	if closeErr != errSentinel {
		t.Fatalf("client conn closed during migration: %v", closeErr)
	}

	cliG.Close(cfd)
	vmb.Guest.Close(srv.lfd)
	c.loop.RunFor(3 * time.Second) // close handshakes + the listener's mapping grace
	for _, err := range srv.closeErrs {
		if err != nil {
			t.Fatalf("server conn died: %v", err)
		}
	}
	if n := c.h2.Engine.Mappings(); n != 0 {
		t.Fatalf("engine holds %d mappings after quiesce", n)
	}
	if n := vmb.NSM.Stack.ConnCount(); n != 0 {
		t.Fatalf("successor stack holds %d conns after quiesce", n)
	}
	for _, vm := range []*VM{vma, vmb} {
		for _, pair := range vm.Guest.Pairs() {
			if pair.Pages.FreeCount() != pair.Pages.Chunks() || pair.Pages.LiveRefs() != 0 {
				t.Fatalf("%s leaked chunks: free %d of %d, refs %d",
					vm.Name, pair.Pages.FreeCount(), pair.Pages.Chunks(), pair.Pages.LiveRefs())
			}
		}
	}
}

// TestNSMMigrateHotSwapCC migrates onto a successor running a
// different congestion-control algorithm mid-transfer: the flow
// survives, finishes byte-exact, and the module advertises the new
// algorithm.
func TestNSMMigrateHotSwapCC(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	startEcho(t, vmb.Guest, 80)

	cliG := vma.Guest
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var echoed []byte
	buf := make([]byte, 64<<10)
	var cfd int32
	cfd = cliG.Socket(guestlib.Callbacks{
		OnReadable: func() {
			for {
				n, _ := cliG.Recv(cfd, buf)
				if n == 0 {
					return
				}
				echoed = append(echoed, buf[:n]...)
			}
		},
	})
	if err := cliG.Connect(cfd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(100 * time.Millisecond)
	pacedSender(c, cliG, cfd, payload)
	c.loop.RunFor(40 * time.Millisecond)

	var rec *Migration
	if _, err := c.h2.MigrateNSM(vmb.NSM, moduleNSM("bbr"), MigrateOptions{}, func(m *Migration) { rec = m }); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(2 * time.Second)

	if rec == nil || rec.Aborted {
		t.Fatalf("hot-swap migration failed: %+v", rec)
	}
	if vmb.NSM.CC != "bbr" {
		t.Fatalf("successor CC = %q, want bbr", vmb.NSM.CC)
	}
	if !bytes.Equal(echoed, payload) {
		t.Fatalf("echo diverged across CC hot-swap: got %d of %d bytes", len(echoed), len(payload))
	}
}

// TestNSMMigrateAbortFallsBackToCrash injects a restore fault
// mid-migration and checks the abort path degrades to exactly the
// crash-reboot semantics of RestartNSM: guests get reset
// notifications, the half-built successor is discarded, the original
// module reboots on its own identity and serves again — and no
// shared-memory chunk is double-freed (the pool panics on double-free)
// or leaked.
func TestNSMMigrateAbortFallsBackToCrash(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	srv := startEcho(t, vmb.Guest, 80)

	cliG := vma.Guest
	// Three live connections with data in flight, so the injected fault
	// (after two restores) strikes mid-migration.
	type cliConn struct {
		fd       int32
		closeErr error
	}
	var conns []*cliConn
	for i := 0; i < 3; i++ {
		cc := &cliConn{closeErr: errSentinel}
		cc.fd = cliG.Socket(guestlib.Callbacks{
			OnClose: func(err error) { cc.closeErr = err },
		})
		if err := cliG.Connect(cc.fd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, cc)
	}
	c.loop.RunFor(200 * time.Millisecond)
	for _, cc := range conns {
		if n := cliG.Send(cc.fd, bytes.Repeat([]byte("y"), 8<<10)); n == 0 {
			t.Fatal("Send pushed nothing")
		}
	}
	c.loop.RunFor(50 * time.Millisecond)

	old := vmb.NSM
	oldStack := old.Stack
	var rec *Migration
	if _, err := c.h2.MigrateNSM(old, moduleNSM("cubic"), MigrateOptions{FailRestoreAfter: 2}, func(m *Migration) { rec = m }); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(2 * time.Second)

	if rec == nil || !rec.Aborted || rec.Err == nil {
		t.Fatalf("expected aborted migration, got %+v", rec)
	}
	// Crash semantics: the engine reset the tenant's channel once, the
	// module rebooted in place, and the discarded successor is gone.
	if st := c.h2.Engine.Stats(); st.NSMResets != 1 || st.ResetConns == 0 {
		t.Fatalf("engine stats after abort: %+v, want 1 reset with conns", st)
	}
	if vmb.NSM != old || old.Restarts != 1 {
		t.Fatalf("abort must reboot the original module (restarts=%d)", old.Restarts)
	}
	if !oldStack.Dead() || old.Stack == oldStack || old.Stack.Dead() {
		t.Fatal("module did not reboot onto a fresh live stack")
	}
	if !rec.To.Stack.Dead() {
		t.Fatal("discarded successor stack still alive")
	}
	if n := c.h2.NSMs(); n != 1 {
		t.Fatalf("host has %d NSMs after abort, want 1", n)
	}
	if len(srv.closeErrs) == 0 {
		t.Fatal("server guest never saw its connections reset")
	}
	for _, err := range srv.closeErrs {
		if err == nil {
			t.Fatal("server conn closed cleanly across an abort, want reset errors")
		}
	}
	// Idle client conns learn of the crash on their next transmit (the
	// rebooted stack RSTs stale segments).
	for _, cc := range conns {
		cliG.Send(cc.fd, []byte("probe"))
	}
	c.loop.RunFor(time.Second)
	for i, cc := range conns {
		if cc.closeErr == errSentinel || cc.closeErr == nil {
			t.Fatalf("client conn %d = %v, want an error after abort", i, cc.closeErr)
		}
	}

	// The rebooted module serves fresh connections under its old
	// identity (the reset killed the guest's listener fd, so re-listen —
	// exactly what a guest does after a module crash).
	srv2 := startEcho(t, vmb.Guest, 80)
	c.loop.RunFor(50 * time.Millisecond)
	var estErr error = errSentinel
	cfd := cliG.Socket(guestlib.Callbacks{OnEstablished: func(err error) { estErr = err }})
	if err := cliG.Connect(cfd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(500 * time.Millisecond)
	if estErr != nil {
		t.Fatalf("post-abort OnEstablished: %v", estErr)
	}
	cliG.Close(cfd)
	vmb.Guest.Close(srv2.lfd)
	c.loop.RunFor(3 * time.Second) // close handshakes + the listener's mapping grace

	if n := c.h2.Engine.Mappings(); n != 0 {
		t.Fatalf("engine holds %d mappings after quiesce", n)
	}
	for _, vm := range []*VM{vma, vmb} {
		for _, pair := range vm.Guest.Pairs() {
			if pair.Pages.FreeCount() != pair.Pages.Chunks() || pair.Pages.LiveRefs() != 0 {
				t.Fatalf("%s leaked chunks after abort: free %d of %d, refs %d",
					vm.Name, pair.Pages.FreeCount(), pair.Pages.Chunks(), pair.Pages.LiveRefs())
			}
		}
	}
}

// TestMigrateServing100VMs is the scale gate: one module multiplexes
// 100 tenant VMs, each mid-way through a paced echo transfer, and one
// live migration moves the module to a new build (hot-swapping every
// flow's congestion control to BBR). Zero connection loss: every
// tenant's echo completes byte-exactly, no close callback fires, and
// the one migration record moves all 100 VMs and their 100 connections.
func TestMigrateServing100VMs(t *testing.T) {
	const tenants = 100
	c := newCluster(t, nil)
	server, err := c.h2.CreateVM(VMConfig{Name: "server", IP: ipVMB, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	if err != nil {
		t.Fatal(err)
	}
	var vms []*VM
	var shared *NSM
	for i := 0; i < tenants; i++ {
		spec := NSMSpec{Form: FormModule, CC: "cubic", ShareWith: shared}
		vm, err := c.h1.CreateVM(VMConfig{Name: "tenant", IP: ipVMA, Mode: ModeNetKernel, NSM: spec})
		if err != nil {
			t.Fatal(err)
		}
		if shared == nil {
			shared = vm.NSM
		}
		vms = append(vms, vm)
	}
	c.loop.RunFor(50 * time.Millisecond) // module boot
	startEcho(t, server.Guest, 7000)

	// Each tenant sends 128 KB in 2 KB chunks every 2 ms, so every
	// transfer spans the migration.
	payload := bytes.Repeat([]byte("netkernel migration payload blk "), 4096)
	type client struct {
		fd       int32
		sent     int
		echoed   []byte
		closeErr error
	}
	clients := make([]*client, tenants)
	for i, vm := range vms {
		g, cl := vm.Guest, &client{closeErr: errSentinel}
		buf := make([]byte, 16384)
		cl.fd = g.Socket(guestlib.Callbacks{
			OnReadable: func() {
				for {
					n, _ := g.Recv(cl.fd, buf)
					if n == 0 {
						return
					}
					cl.echoed = append(cl.echoed, buf[:n]...)
				}
			},
			OnClose: func(err error) { cl.closeErr = err },
		})
		if err := g.Connect(cl.fd, ipVMB, 7000); err != nil {
			t.Fatal(err)
		}
		var tick func()
		tick = func() {
			cl.sent += g.Send(cl.fd, payload[cl.sent:min(cl.sent+2048, len(payload))])
			if cl.sent < len(payload) {
				c.loop.AfterFunc(2*time.Millisecond, tick)
			}
		}
		c.loop.AfterFunc(2*time.Millisecond, tick)
		clients[i] = cl
		c.loop.RunFor(100 * time.Microsecond) // stagger dials so the backlog never overflows
	}
	c.loop.RunFor(20 * time.Millisecond) // everyone mid-transfer

	if n := c.h1.NSMs(); n != 1 {
		t.Fatalf("host1 has %d modules, want the 1 shared module", n)
	}
	var m *Migration
	if _, err := c.h1.MigrateNSM(shared, moduleNSM("bbr"), MigrateOptions{}, func(done *Migration) { m = done }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && m == nil; i++ {
		c.loop.RunFor(10 * time.Millisecond)
	}
	if m == nil {
		t.Fatal("migration never completed")
	}
	c.loop.RunFor(2 * time.Second) // drain the transfers

	if m.Aborted {
		t.Fatalf("migration aborted: %v", m.Err)
	}
	if m.VMs != tenants || m.Conns != tenants {
		t.Fatalf("migration moved %d VMs and %d conns, want %d of each", m.VMs, m.Conns, tenants)
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
	for i, cl := range clients {
		if cl.closeErr != errSentinel {
			t.Errorf("tenant %d connection closed across migration: %v", i, cl.closeErr)
			lost++
		} else if !bytes.Equal(cl.echoed, payload) {
			t.Errorf("tenant %d echo not byte-exact: %d of %d bytes", i, len(cl.echoed), len(payload))
			lost++
		}
		if lost > 3 {
			t.Fatal("... and more")
		}
	}
}

// TestEachNSMInIDOrder boots six modules, migrates the first, and checks
// that EachNSM visits the host's modules in ascending ID order on every
// call, the successor last, without allocating: callers that walk the
// modules once per probe or migration rely on both.
func TestEachNSMInIDOrder(t *testing.T) {
	c := newCluster(t, nil)
	var vms []*VM
	for i := 0; i < 6; i++ {
		vm, err := c.h1.CreateVM(VMConfig{Name: "tenant", IP: ipv4.Addr{10, 0, 1, byte(1 + i)}, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	c.loop.RunFor(50 * time.Millisecond) // module boot
	order := func() []uint32 {
		var ids []uint32
		c.h1.EachNSM(func(n *NSM) { ids = append(ids, n.ID) })
		return ids
	}
	check := func(want []uint32) {
		t.Helper()
		for i := 0; i < 20; i++ {
			if got := order(); !slices.Equal(got, want) {
				t.Fatalf("EachNSM visit %d: %v, want %v", i, got, want)
			}
		}
		var last uint32
		ascending := true
		visit := func(n *NSM) {
			ascending = ascending && n.ID > last
			last = n.ID
		}
		if a := testing.AllocsPerRun(100, func() { last = 0; c.h1.EachNSM(visit) }); a != 0 || !ascending {
			t.Fatalf("EachNSM: %v allocations per call, ascending=%v; want 0 and true", a, ascending)
		}
	}
	var want []uint32
	for _, vm := range vms {
		want = append(want, vm.NSM.ID)
	}
	if !slices.IsSorted(want) {
		t.Fatalf("modules booted with IDs %v, want them ascending", want)
	}
	check(want)

	var m *Migration
	if _, err := c.h1.MigrateNSM(vms[0].NSM, moduleNSM("cubic"), MigrateOptions{}, func(done *Migration) { m = done }); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(100 * time.Millisecond)
	if m == nil || m.Aborted {
		t.Fatalf("migration did not complete: %+v", m)
	}
	check(append(want[1:], m.To.ID))
}
