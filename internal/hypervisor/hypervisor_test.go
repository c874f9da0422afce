package hypervisor

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/netsim"
	"netkernel/internal/nqe"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
)

var (
	ipVMA = ipv4.Addr{10, 0, 1, 1}
	ipVMB = ipv4.Addr{10, 0, 2, 1}
)

// cluster is two hosts joined back to back, the paper's testbed.
type cluster struct {
	loop   *sim.Loop
	h1, h2 *Host
	l12    *netsim.Link // host1's frames toward host2
}

func newCluster(t *testing.T, mutate func(cfg *HostConfig)) *cluster {
	t.Helper()
	loop := sim.NewLoop()
	rng := sim.NewRNG(99)
	pages := shm.NewPool() // the two hosts share their huge pages, as a World's do
	mk := func(name string, id uint8) *Host {
		cfg := HostConfig{
			Name: name, Clock: loop, RNG: sim.NewRNG(uint64(id)),
			HostID: id, Cores: 8, HugePages: pages,
			MinRTO: 20 * time.Millisecond, MSL: 50 * time.Millisecond,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return NewHost(cfg)
	}
	h1 := mk("host1", 1)
	h2 := mk("host2", 2)
	link := netsim.Testbed40G()
	l12, l21 := netsim.Duplex(loop, rng, link, h1.NIC, h2.NIC)
	h1.NIC.AttachWire(l12)
	h2.NIC.AttachWire(l21)
	return &cluster{loop: loop, h1: h1, h2: h2, l12: l12}
}

func moduleNSM(cc string) NSMSpec { return NSMSpec{Form: FormModule, CC: cc} }

// nkPair creates one NetKernel VM on each host and returns them after
// the NSMs have booted.
func (c *cluster) nkPair(t *testing.T, ccA, ccB string) (*VM, *VM) {
	t.Helper()
	vma, err := c.h1.CreateVM(VMConfig{Name: "vma", IP: ipVMA, Mode: ModeNetKernel, NSM: moduleNSM(ccA)})
	if err != nil {
		t.Fatal(err)
	}
	vmb, err := c.h2.CreateVM(VMConfig{Name: "vmb", IP: ipVMB, Mode: ModeNetKernel, NSM: moduleNSM(ccB)})
	if err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(50 * time.Millisecond) // module boot time
	return vma, vmb
}

func TestNetKernelSocketLifecycle(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	// Server on vmb.
	srvG := vmb.Guest
	var acceptedFD int32 = -1
	lfd := srvG.Socket(guestlib.Callbacks{OnAcceptable: func() {}})
	if err := srvG.Listen(lfd, 80, 16); err != nil {
		t.Fatal(err)
	}

	// Client on vma.
	cliG := vma.Guest
	var estErr error = errSentinel
	cfd := cliG.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) { estErr = err },
	})
	if err := cliG.Connect(cfd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(500 * time.Millisecond)

	if estErr != nil {
		t.Fatalf("OnEstablished: %v", estErr)
	}
	fd, ok := srvG.Accept(lfd)
	if !ok {
		t.Fatal("server never got an acceptable connection")
	}
	acceptedFD = fd

	// Data client → server.
	msg := []byte("hello through the network stack service")
	if n := cliG.Send(cfd, msg); n != len(msg) {
		t.Fatalf("Send = %d", n)
	}
	c.loop.RunFor(200 * time.Millisecond)
	buf := make([]byte, 1024)
	n, _ := srvG.Recv(acceptedFD, buf)
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("server received %q", buf[:n])
	}

	// Echo server → client.
	srvG.Send(acceptedFD, buf[:n])
	c.loop.RunFor(200 * time.Millisecond)
	m, _ := cliG.Recv(cfd, buf)
	if !bytes.Equal(buf[:m], msg) {
		t.Fatalf("client received %q", buf[:m])
	}

	// Close propagates as EOF.
	cliG.Close(cfd)
	c.loop.RunFor(300 * time.Millisecond)
	_, eof := srvG.Recv(acceptedFD, buf)
	if !eof {
		t.Fatal("server never saw EOF after client close")
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestNetKernelBulkTransfer(t *testing.T) {
	c := newCluster(t, nil)
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

	payload := make([]byte, 4<<20)
	rng := sim.NewRNG(5)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	var got bytes.Buffer
	sent := 0
	buf := make([]byte, 256<<10)
	for iter := 0; iter < 20000 && got.Len() < len(payload); iter++ {
		if sent < len(payload) {
			sent += vma.Guest.Send(cfd, payload[sent:])
		}
		c.loop.RunFor(time.Millisecond)
		for {
			n, _ := vmb.Guest.Recv(sfd, buf)
			if n == 0 {
				break
			}
			got.Write(buf[:n])
		}
	}
	if got.Len() != len(payload) {
		t.Fatalf("transferred %d of %d", got.Len(), len(payload))
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("bulk payload corrupted through the NetKernel path")
	}
}

func TestWindowsGuestUsesBBRNSM(t *testing.T) {
	// The §4.3 flexibility claim: a Windows VM (kernel C-TCP) sends
	// with BBR because the NSM runs BBR.
	c := newCluster(t, nil)
	vma, err := c.h1.CreateVM(VMConfig{
		Name: "win", Profile: guestlib.ProfileWindows,
		IP: ipVMA, Mode: ModeNetKernel, NSM: moduleNSM("bbr"),
	})
	if err != nil {
		t.Fatal(err)
	}
	vmb, _ := c.h2.CreateVM(VMConfig{Name: "srv", IP: ipVMB, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	c.loop.RunFor(50 * time.Millisecond)

	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, 80, 4)
	cfd := vma.Guest.Socket(guestlib.Callbacks{})
	vma.Guest.Connect(cfd, ipVMB, 80)
	c.loop.RunFor(200 * time.Millisecond)

	// Inspect the NSM stack's live connection: it must run BBR even
	// though the guest is a Windows profile.
	found := ""
	vma.NSM.Stack.Conns(func(conn *tcp.Conn) { found = conn.CongestionControl().Name() })
	if found != "bbr" {
		t.Fatalf("NSM connection runs %q, want bbr", found)
	}
	if vma.Profile.DefaultCC() != "ctcp" {
		t.Fatal("Windows profile default should be ctcp")
	}
}

func TestLegacyVMPath(t *testing.T) {
	c := newCluster(t, nil)
	vma, err := c.h1.CreateVM(VMConfig{Name: "l1", IP: ipVMA, Mode: ModeLegacy, Profile: guestlib.ProfileLinux})
	if err != nil {
		t.Fatal(err)
	}
	vmb, err := c.h2.CreateVM(VMConfig{Name: "l2", IP: ipVMB, Mode: ModeLegacy, Profile: guestlib.ProfileWindows})
	if err != nil {
		t.Fatal(err)
	}
	if vma.Legacy == nil || vmb.Legacy == nil {
		t.Fatal("legacy VMs missing in-guest stacks")
	}

	l, err := vmb.Legacy.Listen(80, 4, stack.SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := vma.Legacy.Dial(tcp.AddrPort{Addr: ipVMB, Port: 80}, stack.SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(200 * time.Millisecond)
	srv, ok := l.Accept()
	if !ok {
		t.Fatal("legacy accept failed")
	}
	// The Windows legacy guest runs C-TCP in-kernel.
	if srv.CongestionControl().Name() != "ctcp" {
		t.Fatalf("windows legacy stack runs %q", srv.CongestionControl().Name())
	}
	if conn.CongestionControl().Name() != "cubic" {
		t.Fatalf("linux legacy stack runs %q", conn.CongestionControl().Name())
	}
}

func TestNetKernelTalksToLegacy(t *testing.T) {
	c := newCluster(t, nil)
	vma, err := c.h1.CreateVM(VMConfig{Name: "nk", IP: ipVMA, Mode: ModeNetKernel, NSM: moduleNSM("bbr")})
	if err != nil {
		t.Fatal(err)
	}
	vmb, err := c.h2.CreateVM(VMConfig{Name: "legacy", IP: ipVMB, Mode: ModeLegacy})
	if err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(50 * time.Millisecond)

	if err := vmb.Sockets.Listen(vmb.Sockets.Socket(guestlib.Callbacks{}), 80, 4); err != nil {
		t.Fatal(err)
	}
	var est error = errSentinel
	cfd := vma.Guest.Socket(guestlib.Callbacks{OnEstablished: func(err error) { est = err }})
	vma.Guest.Connect(cfd, ipVMB, 80)
	c.loop.RunFor(300 * time.Millisecond)
	if est != nil {
		t.Fatalf("NetKernel→legacy connect: %v", est)
	}
}

func TestNSMBootGatesService(t *testing.T) {
	c := newCluster(t, nil)
	// FormContainer boots in 300 ms.
	vma, _ := c.h1.CreateVM(VMConfig{Name: "a", IP: ipVMA, Mode: ModeNetKernel, NSM: NSMSpec{Form: FormContainer, CC: "cubic"}})
	vmb, _ := c.h2.CreateVM(VMConfig{Name: "b", IP: ipVMB, Mode: ModeNetKernel, NSM: NSMSpec{Form: FormContainer, CC: "cubic"}})

	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, 80, 4)
	var est error = errSentinel
	cfd := vma.Guest.Socket(guestlib.Callbacks{OnEstablished: func(err error) { est = err }})
	vma.Guest.Connect(cfd, ipVMB, 80)

	// Before boot completes nothing is established.
	c.loop.RunFor(100 * time.Millisecond)
	if est != errSentinel {
		t.Fatal("connection progressed before the NSM booted")
	}
	c.loop.RunFor(2 * time.Second)
	if est != nil {
		t.Fatalf("connection after boot: %v", est)
	}
}

func TestMultiplexingSharedNSM(t *testing.T) {
	// §2.1: one NSM serving multiple tenant VMs.
	c := newCluster(t, nil)
	vm1, err := c.h1.CreateVM(VMConfig{Name: "t1", IP: ipVMA, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := c.h1.CreateVM(VMConfig{Name: "t2", IP: ipVMA, Mode: ModeNetKernel, NSM: NSMSpec{ShareWith: vm1.NSM}})
	if err != nil {
		t.Fatal(err)
	}
	if vm1.NSM != vm2.NSM {
		t.Fatal("VMs did not share the NSM")
	}
	if vm1.NSM.Tenants() != 2 {
		t.Fatalf("Tenants = %d", vm1.NSM.Tenants())
	}
	if c.h1.NSMs() != 1 {
		t.Fatalf("host has %d NSMs, want 1", c.h1.NSMs())
	}

	// Both tenants can use the shared module concurrently.
	vmb, _ := c.h2.CreateVM(VMConfig{Name: "srv", IP: ipVMB, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	c.loop.RunFor(50 * time.Millisecond)
	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, 80, 16)

	est := map[string]error{"t1": errSentinel, "t2": errSentinel}
	for name, g := range map[string]*guestlib.GuestLib{"t1": vm1.Guest, "t2": vm2.Guest} {
		name := name
		fd := g.Socket(guestlib.Callbacks{OnEstablished: func(err error) { est[name] = err }})
		g.Connect(fd, ipVMB, 80)
	}
	c.loop.RunFor(500 * time.Millisecond)
	if est["t1"] != nil || est["t2"] != nil {
		t.Fatalf("multiplexed connects: %v / %v", est["t1"], est["t2"])
	}
}

func TestEngineRejectsUnknownFD(t *testing.T) {
	c := newCluster(t, nil)
	vma, _ := c.h1.CreateVM(VMConfig{Name: "a", IP: ipVMA, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	c.loop.RunFor(50 * time.Millisecond)

	// A buggy or malicious guest writes a job for a descriptor the
	// CoreEngine never issued; the engine must reject it and answer
	// with an error completion instead of corrupting the mapping table.
	for _, ep := range c.h1.Engine.pairs {
		bogus := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: ep.vmID, FD: 31337, DataLen: 64}
		ep.ch.VMJob.Push(&bogus)
		ep.ch.KickEngineVM(0)
	}
	c.loop.RunFor(50 * time.Millisecond)
	if c.h1.Engine.Stats().BadElements == 0 {
		t.Fatal("engine accepted an unmapped fd")
	}
	// The engine put that completion into the VM's ring itself, so the
	// wake is the engine's to deliver too.
	if got := vma.Guest.Stats().Completions; got != 1 {
		t.Fatalf("guest drained %d completions, want the one error completion", got)
	}
}

// A guest writes its own OpSend descriptors, so a forged one can name
// any offset and length on a socket it really owns. ServiceLib panics
// on a bad descriptor that reaches its chunk operations, which would
// take every tenant of a shared NSM down with it; the engine must
// refuse each such job before it is forwarded, answering it as it
// answers an unknown fd, and ServiceLib must refuse one whose chunk was
// freed after the engine passed it.
func TestForgedSendDescriptorAnsweredInvalid(t *testing.T) {
	c := newCluster(t, nil)
	evil, err := c.h1.CreateVM(VMConfig{Name: "evil", IP: ipVMA, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	if err != nil {
		t.Fatal(err)
	}
	good, err := c.h1.CreateVM(VMConfig{Name: "good", IP: ipVMA, Mode: ModeNetKernel, NSM: NSMSpec{ShareWith: evil.NSM}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := c.h2.CreateVM(VMConfig{Name: "srv", IP: ipVMB, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	if err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(50 * time.Millisecond)
	startEcho(t, srv.Guest, 9000)

	// The attacker's socket is real, so its fd is mapped.
	g := evil.Guest
	established := false
	fd := g.Socket(guestlib.Callbacks{OnEstablished: func(err error) {
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		established = true
	}})
	if err := g.Connect(fd, ipVMB, 9000); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, c, func() bool { return established })

	pair := g.Pairs()[0]
	held, _ := pair.Pages.Alloc()
	freed, _ := pair.Pages.Alloc()
	pair.Pages.Free(freed)
	size := uint64(pair.ChunkSize())
	// Read the answers off the guest's completion ring here instead of
	// letting the guest drain them.
	kickVM := pair.KickVM
	pair.KickVM = nil
	for i, tc := range []struct {
		name string
		off  uint64
		len  uint32
	}{
		{"misaligned offset", held.Offset + 1, 64},
		{"offset past the region", uint64(pair.Pages.Chunks()) * size, 64},
		{"free chunk", freed.Offset, 64},
		{"length past the chunk", held.Offset, uint32(size) + 1},
	} {
		before := c.h1.Engine.Stats().BadElements
		seq := uint64(1000 + i)
		pair.VMJob.Push(&nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: evil.ID, FD: fd, Seq: seq, DataOff: tc.off, DataLen: tc.len})
		pair.KickEngineVM(0)
		c.loop.RunFor(10 * time.Millisecond)
		if n := c.h1.Engine.Stats().BadElements - before; n != 1 {
			t.Errorf("%s: %d bad elements counted, want 1", tc.name, n)
		}
		want := nqe.Element{Op: nqe.OpSend, Flags: nqe.FlagCompletion, Source: nqe.FromCore, Status: nqe.StatusInvalid, VMID: evil.ID, FD: fd, Seq: seq}
		var e nqe.Element
		if !pair.VMCompletion.Pop(&e) || e != want {
			t.Errorf("%s: answered with %+v, want %+v", tc.name, e, want)
		}
	}
	// A descriptor naming a held chunk passes the engine, and the guest
	// frees the chunk while the job waits on the NSM's ring: ServiceLib
	// checks the chunk again when it takes the job, and refuses it.
	late, _ := pair.Pages.Alloc()
	before := c.h1.Engine.Stats().BadElements
	pair.VMJob.Push(&nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: evil.ID, FD: fd, Seq: 2000, DataOff: late.Offset, DataLen: 64})
	pair.KickEngineVM(0)
	stepUntil(t, c, func() bool { return pair.NSMJob.Len() > 0 })
	pair.Pages.Free(late)
	c.loop.RunFor(10 * time.Millisecond)
	if n := c.h1.Engine.Stats().BadElements - before; n != 0 {
		t.Errorf("freed after translation: %d bad elements counted, want 0", n)
	}
	if e := (nqe.Element{}); !pair.VMCompletion.Pop(&e) || e.Op != nqe.OpSend || e.FD != fd || e.Status != nqe.StatusInvalid {
		t.Errorf("freed after translation: answered with %+v, want a StatusInvalid send completion", e)
	}
	pair.KickVM = kickVM
	if n := pair.Pages.RefCount(held); n != 1 {
		t.Errorf("the chunk a forged descriptor named holds %d references, want the guest's 1", n)
	}
	pair.Pages.Free(held)

	// The shared NSM still serves its other tenant, byte for byte.
	payload := make([]byte, 100<<10)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	var echoed []byte
	buf := make([]byte, 64<<10)
	var cfd int32
	cfd = good.Guest.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err != nil {
				t.Fatalf("co-tenant connect: %v", err)
			}
			pacedSender(c, good.Guest, cfd, payload)
		},
		OnReadable: func() {
			for {
				n, _ := good.Guest.Recv(cfd, buf)
				if n == 0 {
					return
				}
				echoed = append(echoed, buf[:n]...)
			}
		},
	})
	if err := good.Guest.Connect(cfd, ipVMB, 9000); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, c, func() bool { return len(echoed) >= len(payload) })
	if !bytes.Equal(echoed, payload) {
		t.Fatalf("co-tenant's echo differs after the forged sends: %d of %d bytes back", len(echoed), len(payload))
	}
}

func TestEngineRejectsWrongVMID(t *testing.T) {
	c := newCluster(t, nil)
	c.h1.CreateVM(VMConfig{Name: "a", IP: ipVMA, Mode: ModeNetKernel, NSM: moduleNSM("cubic")})
	c.loop.RunFor(50 * time.Millisecond)
	// Spoofed VM identity in the element.
	for _, ep := range c.h1.Engine.pairs {
		bogus := nqe.Element{Op: nqe.OpSocket, Source: nqe.FromVM, VMID: ep.vmID + 77, FD: 3}
		ep.ch.VMJob.Push(&bogus)
		ep.ch.KickEngineVM(0)
	}
	c.loop.RunFor(50 * time.Millisecond)
	if c.h1.Engine.Stats().BadElements == 0 {
		t.Fatal("engine accepted a spoofed VM ID")
	}
}

func TestFormProfilesOrdering(t *testing.T) {
	vm, uni, ct, mod := FormVM.Profile(), FormUnikernel.Profile(), FormContainer.Profile(), FormModule.Profile()
	if !(mod.BootTime < uni.BootTime && uni.BootTime < vm.BootTime) {
		t.Fatal("boot times not ordered module < unikernel < vm")
	}
	if !(mod.NotifyLatency < ct.NotifyLatency && ct.NotifyLatency < vm.NotifyLatency) {
		t.Fatal("notify latency not ordered module < container < vm")
	}
	if !(mod.MemoryMB < ct.MemoryMB && ct.MemoryMB < vm.MemoryMB) {
		t.Fatal("memory not ordered")
	}
	if FormVM.String() != "vm" || FormModule.String() != "module" {
		t.Fatal("form names broken")
	}
}

func TestEngineStatsCount(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	lfd := vmb.Guest.Socket(guestlib.Callbacks{})
	vmb.Guest.Listen(lfd, 80, 4)
	cfd := vma.Guest.Socket(guestlib.Callbacks{})
	vma.Guest.Connect(cfd, ipVMB, 80)
	c.loop.RunFor(300 * time.Millisecond)
	st := c.h1.Engine.Stats()
	if st.NqesVMToNSM == 0 || st.NqesNSMToVM == 0 || st.Translated == 0 {
		t.Fatalf("engine stats empty: %+v", st)
	}
	if c.h1.Engine.Pairs() != 1 {
		t.Fatalf("Pairs = %d", c.h1.Engine.Pairs())
	}
}
