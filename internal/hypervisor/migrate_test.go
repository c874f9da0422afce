package hypervisor

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/guestlib"
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
