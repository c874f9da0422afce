package hypervisor

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/sim"
)

// bulkThrough pushes size bytes from vma to vmb and returns the bytes
// that arrived within the deadline.
func bulkThrough(c *cluster, vma, vmb *VM, port uint16, size int, deadline time.Duration) int {
	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, port, 8)
	var got bytes.Buffer
	buf := make([]byte, 256<<10)
	vmb.Guest.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		fd, ok := vmb.Guest.Accept(lfd)
		if !ok {
			return
		}
		vmb.Guest.SetCallbacks(fd, guestlib.Callbacks{OnReadable: func() {
			for {
				n, _ := vmb.Guest.Recv(fd, buf)
				if n == 0 {
					return
				}
				got.Write(buf[:n])
			}
		}})
	}})

	payload := make([]byte, size)
	sent := 0
	var fd int32
	pump := func() {
		for sent < size {
			n := vma.Guest.Send(fd, payload[sent:])
			sent += n
			if n == 0 {
				return
			}
		}
	}
	fd = vma.Guest.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err == nil {
				pump()
			}
		},
		OnWritable: pump,
	})
	vma.Guest.Connect(fd, vmb.IP, port)
	c.loop.RunFor(deadline)
	return got.Len()
}

// Tiny rings force the CoreEngine's stall/retry machinery (the toNSM
// and toVM backlogs) onto the hot path; the transfer must still complete
// losslessly.
func TestEngineBackpressureWithTinyRings(t *testing.T) {
	c := newCluster(t, func(cfg *HostConfig) {
		cfg.Chan.Queue = nkqueue.Config{Slots: 4}
	})
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	got := bulkThrough(c, vma, vmb, 9000, 1<<20, 3*time.Second)
	if got != 1<<20 {
		t.Fatalf("transferred %d of %d through 4-slot rings", got, 1<<20)
	}
}

func TestPriorityRingsEndToEnd(t *testing.T) {
	c := newCluster(t, func(cfg *HostConfig) {
		cfg.Chan.Queue = nkqueue.Config{Slots: 64, Priority: true}
	})
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	got := bulkThrough(c, vma, vmb, 9000, 1<<20, 3*time.Second)
	if got != 1<<20 {
		t.Fatalf("transferred %d of %d through priority rings", got, 1<<20)
	}
}

func TestNSMRateLimitEnforced(t *testing.T) {
	c := newCluster(t, nil)
	vma, err := c.h1.CreateVM(VMConfig{
		Name: "limited", IP: ipVMA, Mode: ModeNetKernel,
		NSM: NSMSpec{Form: FormModule, CC: "cubic", RateLimitBps: 100e6}, // 100 Mbit/s SLA
	})
	if err != nil {
		t.Fatal(err)
	}
	vmb, _ := c.h2.CreateVM(VMConfig{Name: "sink", IP: ipVMB, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	c.loop.RunFor(50 * time.Millisecond)

	got := bulkThrough(c, vma, vmb, 9000, 64<<20, time.Second)
	bps := float64(got) * 8
	// 100 Mbit/s over ~1s (allow the burst allowance and ramp).
	if bps > 140e6 {
		t.Fatalf("rate limit leaked: %.0f Mbit/s against a 100 Mbit/s SLA", bps/1e6)
	}
	if bps < 60e6 {
		t.Fatalf("rate limit over-throttled: %.0f Mbit/s", bps/1e6)
	}
}

func TestNSMScaleUpCores(t *testing.T) {
	c := newCluster(t, nil)
	vm, err := c.h1.CreateVM(VMConfig{
		Name: "big", IP: ipVMA, Mode: ModeNetKernel,
		NSM: NSMSpec{Form: FormVM, CC: "cubic", Cores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.NSM.CPU.Cores() != 4 {
		t.Fatalf("scale-up NSM has %d cores, want 4", vm.NSM.CPU.Cores())
	}
	// Default form reservation still applies without the override.
	vm2, _ := c.h1.CreateVM(VMConfig{
		Name: "small", IP: ipVMB, Mode: ModeNetKernel,
		NSM: NSMSpec{Form: FormVM, CC: "cubic"},
	})
	if vm2.NSM.CPU.Cores() != 1 {
		t.Fatalf("default VM-form NSM has %d cores, want 1", vm2.NSM.CPU.Cores())
	}
}

func TestModuleFormSharesHostCPU(t *testing.T) {
	c := newCluster(t, nil)
	vm, _ := c.h1.CreateVM(VMConfig{Name: "m", IP: ipVMA, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	if vm.NSM.CPU != c.h1.CPU {
		t.Fatal("module-form NSM should share the hypervisor CPU")
	}
}

func TestBootNSMDirectly(t *testing.T) {
	c := newCluster(t, nil)
	nsm := c.h1.BootNSM(NSMSpec{Form: FormContainer, CC: "bbr"}, ipVMA)
	if nsm.CC != "bbr" || nsm.Stack == nil {
		t.Fatalf("BootNSM produced %+v", nsm)
	}
	if c.h1.NSMs() != 1 {
		t.Fatal("NSM not registered with the host")
	}
	// Attach a VM to it explicitly.
	vm, err := c.h1.CreateVM(VMConfig{Name: "t", IP: ipVMA, Mode: ModeNetKernel, NSM: NSMSpec{ShareWith: nsm}})
	if err != nil {
		t.Fatal(err)
	}
	if vm.NSM != nsm || c.h1.NSMs() != 1 {
		t.Fatal("explicit attach booted a second NSM")
	}
}

func TestVMRequiresIP(t *testing.T) {
	c := newCluster(t, nil)
	if _, err := c.h1.CreateVM(VMConfig{Name: "noip", Mode: ModeLegacy}); err == nil {
		t.Fatal("VM without IP accepted")
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, 80, 128)
	accepted := 0
	vmb.Guest.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		for {
			if _, ok := vmb.Guest.Accept(lfd); !ok {
				return
			}
			accepted++
		}
	}})

	const conns = 50
	established := 0
	for i := 0; i < conns; i++ {
		fd := vma.Guest.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err == nil {
					established++
				}
			},
		})
		vma.Guest.Connect(fd, ipVMB, 80)
	}
	c.loop.RunFor(2 * time.Second)
	if established != conns {
		t.Fatalf("established %d of %d connections", established, conns)
	}
	if accepted != conns {
		t.Fatalf("accepted %d of %d connections", accepted, conns)
	}
	if vma.NSM.Stack.ConnCount() != conns {
		t.Fatalf("NSM stack tracks %d conns", vma.NSM.Stack.ConnCount())
	}
}

func TestEngineBootGateDelaysNotReorders(t *testing.T) {
	// Ops issued before boot must be processed in order afterwards.
	loop := sim.NewLoop()
	_ = loop
	c := newCluster(t, nil)
	vma, _ := c.h1.CreateVM(VMConfig{Name: "a", IP: ipVMA, Mode: ModeNetKernel,
		NSM: NSMSpec{Form: FormVM, CC: "cubic"}}) // 3 s boot
	vmb, _ := c.h2.CreateVM(VMConfig{Name: "b", IP: ipVMB, Mode: ModeNetKernel,
		NSM: NSMSpec{Form: FormVM, CC: "cubic"}})

	// Queue a whole socket+listen and socket+connect sequence pre-boot.
	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, 80, 8)
	var est error = errSentinel
	fd := vma.Guest.Socket(guestlib.Callbacks{OnEstablished: func(err error) { est = err }})
	vma.Guest.Connect(fd, ipVMB, 80)

	c.loop.RunFor(time.Second)
	if est != errSentinel {
		t.Fatal("progress before the NSM booted")
	}
	c.loop.RunFor(5 * time.Second)
	if est != nil {
		t.Fatalf("pre-boot operations failed after boot: %v", est)
	}
}

func TestSetSockOptThroughNSM(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, 80, 4)
	fd := vma.Guest.Socket(guestlib.Callbacks{})
	vma.Guest.Connect(fd, ipVMB, 80)
	c.loop.RunFor(200 * time.Millisecond)

	if err := vma.Guest.SetSockOpt(fd, nqe.SockOptNagle, 1); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(100 * time.Millisecond)
	// The NSM-side connection now has Nagle enabled.
	nagle := false
	vma.NSM.Stack.Conns(func(conn *tcp.Conn) { nagle = conn.NagleEnabled() })
	if !nagle {
		t.Fatal("setsockopt(Nagle) did not reach the NSM connection")
	}
	if err := vma.Guest.SetSockOpt(999, nqe.SockOptNagle, 1); err == nil {
		t.Fatal("setsockopt on bad fd accepted")
	}
}

// Close on a socket whose sends still sit in ServiceLib's queue (the TCP
// send buffer was full) must not drop them: the FIN goes out behind the
// queued bytes, the receiver gets every byte and then EOF, and no
// huge-page reference outlives the connection.
func TestCloseDrainsQueuedSends(t *testing.T) {
	// A 64 KiB TCP send buffer under the 1 MiB per-socket send credit:
	// most of the megabyte waits in ServiceLib when Close arrives.
	c := newCluster(t, func(cfg *HostConfig) { cfg.SendBufSize = 64 << 10 })
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, 9000, 4)
	cfd := vma.Guest.Socket(guestlib.Callbacks{})
	vma.Guest.Connect(cfd, ipVMB, 9000)
	c.loop.RunFor(200 * time.Millisecond)
	sfd, ok := vmb.Guest.Accept(lfd)
	if !ok {
		t.Fatal("accept failed")
	}

	payload := make([]byte, 1<<20)
	rng := sim.NewRNG(5)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	// Offer the whole megabyte as fast as send credit allows, never
	// reading meanwhile, and close the instant the last byte is taken.
	for sent := 0; sent < len(payload); {
		n := vma.Guest.Send(cfd, payload[sent:])
		sent += n
		if n == 0 {
			c.loop.RunFor(10 * time.Microsecond)
		}
	}
	vma.Guest.Close(cfd)

	var got bytes.Buffer
	buf := make([]byte, 256<<10)
	eof := false
	for iter := 0; iter < 2000 && !eof; iter++ {
		c.loop.RunFor(time.Millisecond)
		for {
			var n int
			n, eof = vmb.Guest.Recv(sfd, buf)
			got.Write(buf[:n])
			if n == 0 {
				break
			}
		}
	}
	if !eof {
		t.Fatalf("no EOF after %d of %d bytes", got.Len(), len(payload))
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("receiver got %d of %d bytes before EOF", got.Len(), len(payload))
	}
	vmb.Guest.Close(sfd)
	vmb.Guest.Close(lfd)
	c.loop.RunFor(500 * time.Millisecond)
	for _, vm := range []*VM{vma, vmb} {
		for _, pair := range vm.Guest.Pairs() {
			if n := pair.Pages.LiveRefs(); n != 0 {
				t.Errorf("%s: %d live huge-page refs after close", vm.Name, n)
			}
		}
	}
}
