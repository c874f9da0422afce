package hypervisor

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/proto/ipv4"
)

// TestNSMCrashRestart crashes the server-side NSM mid-connection and
// checks the full recovery sequence: guests on the crashed module get
// reset notifications, the engine's mapping table is cleaned, the peer
// connection dies (the rebooted stack answers stale segments with RST),
// the module reboots with its original network identity, and a fresh
// connection over the same module works end to end with no leaked
// shared-memory chunks.
func TestNSMCrashRestart(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	srvG, cliG := vmb.Guest, vma.Guest
	lfd := srvG.Socket(guestlib.Callbacks{})
	if err := srvG.Listen(lfd, 80, 16); err != nil {
		t.Fatal(err)
	}

	var estErr error = errSentinel
	var cliCloseErr error = errSentinel
	cfd := cliG.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) { estErr = err },
		OnClose:       func(err error) { cliCloseErr = err },
	})
	if err := cliG.Connect(cfd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(200 * time.Millisecond)
	if estErr != nil {
		t.Fatalf("OnEstablished: %v", estErr)
	}
	afd, ok := srvG.Accept(lfd)
	if !ok {
		t.Fatal("server never accepted")
	}
	var srvCloseErr error = errSentinel
	srvG.SetCallbacks(afd, guestlib.Callbacks{
		OnClose: func(err error) { srvCloseErr = err },
	})

	// Put data in flight so the crash finds live state to discard.
	if n := cliG.Send(cfd, bytes.Repeat([]byte("x"), 8<<10)); n == 0 {
		t.Fatal("Send pushed nothing")
	}
	c.loop.RunFor(100 * time.Millisecond)
	if c.h2.Engine.Mappings() == 0 {
		t.Fatal("no live mapping before the crash")
	}

	// Crash + reboot the server-side module.
	c.h2.RestartNSM(vmb.NSM)
	oldStack := vmb.NSM.Stack
	c.loop.RunFor(2 * time.Second)

	st := c.h2.Engine.Stats()
	if st.NSMResets != 1 {
		t.Fatalf("NSMResets = %d, want 1", st.NSMResets)
	}
	if st.ResetConns == 0 {
		t.Fatal("engine reset no connections")
	}
	if srvCloseErr == errSentinel || srvCloseErr == nil {
		t.Fatalf("server guest OnClose = %v, want a reset error", srvCloseErr)
	}
	// The idle client conn only learns of the crash when it next
	// transmits: the rebooted stack answers the stale segment with RST.
	cliG.Send(cfd, []byte("probe"))
	c.loop.RunFor(time.Second)
	if cliCloseErr == errSentinel || cliCloseErr == nil {
		t.Fatalf("client OnClose = %v, want an error (stale conn must die)", cliCloseErr)
	}
	if c.h2.Engine.Mappings() != 0 {
		t.Fatalf("h2 mappings = %d after reset, want 0", c.h2.Engine.Mappings())
	}
	if vmb.NSM.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", vmb.NSM.Restarts)
	}
	if vmb.NSM.Stack == oldStack || !oldStack.Dead() || vmb.NSM.Stack.Dead() {
		t.Fatal("module did not come back with a fresh live stack")
	}

	// The rebooted module serves new connections under the same IP.
	lfd2 := srvG.Socket(guestlib.Callbacks{})
	if err := srvG.Listen(lfd2, 80, 16); err != nil {
		t.Fatal(err)
	}
	estErr = errSentinel
	cfd2 := cliG.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) { estErr = err },
	})
	if err := cliG.Connect(cfd2, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(500 * time.Millisecond)
	if estErr != nil {
		t.Fatalf("post-reboot OnEstablished: %v", estErr)
	}
	afd2, ok := srvG.Accept(lfd2)
	if !ok {
		t.Fatal("rebooted module never accepted")
	}
	msg := []byte("alive again")
	cliG.Send(cfd2, msg)
	c.loop.RunFor(200 * time.Millisecond)
	buf := make([]byte, 64)
	if n, _ := srvG.Recv(afd2, buf); !bytes.Equal(buf[:n], msg) {
		t.Fatalf("post-reboot transfer got %q", buf[:n])
	}

	// Quiesce and reconcile: no chunk leaks in either channel.
	cliG.Close(cfd2)
	srvG.Close(afd2)
	c.loop.RunFor(2 * time.Second)
	for i, vm := range []*VM{vma, vmb} {
		for _, pair := range vm.Guest.Pairs() {
			if pair.Pages.FreeCount() != pair.Pages.Chunks() {
				t.Fatalf("vm %d leaked chunks: free %d of %d",
					i, pair.Pages.FreeCount(), pair.Pages.Chunks())
			}
		}
	}
}

// TestNSMCrashIsIsolated checks the blast radius: a module crash must
// not disturb connections of VMs on other modules of the same host.
func TestNSMCrashIsIsolated(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	srvG, cliG := vmb.Guest, vma.Guest
	lfd := srvG.Socket(guestlib.Callbacks{})
	if err := srvG.Listen(lfd, 80, 16); err != nil {
		t.Fatal(err)
	}
	var estErr error = errSentinel
	closed := false
	cfd := cliG.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) { estErr = err },
		OnClose:       func(error) { closed = true },
	})
	cliG.Connect(cfd, ipVMB, 80)
	c.loop.RunFor(200 * time.Millisecond)
	if estErr != nil {
		t.Fatalf("OnEstablished: %v", estErr)
	}
	afd, _ := srvG.Accept(lfd)

	// Boot and crash an unrelated module on h2.
	other, err := c.h2.CreateVM(VMConfig{
		Name: "other", IP: ipv4.Addr{10, 0, 2, 9}, Mode: ModeNetKernel,
		NSM: moduleNSM("cubic"),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(50 * time.Millisecond)
	c.h2.RestartNSM(other.NSM)
	c.loop.RunFor(time.Second)

	if closed {
		t.Fatal("crash of an unrelated NSM closed a bystander connection")
	}
	msg := []byte("still here")
	cliG.Send(cfd, msg)
	c.loop.RunFor(200 * time.Millisecond)
	buf := make([]byte, 64)
	if n, _ := srvG.Recv(afd, buf); !bytes.Equal(buf[:n], msg) {
		t.Fatalf("bystander transfer got %q", buf[:n])
	}
	if c.h2.Engine.Stats().NSMResets != 1 {
		t.Fatalf("NSMResets = %d, want 1", c.h2.Engine.Stats().NSMResets)
	}
}
