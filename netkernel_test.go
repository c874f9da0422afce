package netkernel

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"netkernel/internal/shm"
)

// TestPublicAPIQuickstart exercises the documented public surface end
// to end: cluster, hosts, a BBR NSM serving a Windows-profile guest,
// and an echo exchange.
func TestPublicAPIQuickstart(t *testing.T) {
	c := NewCluster(ClusterConfig{})
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	c.ConnectHosts(h1, h2, Testbed40G())

	server, err := h2.CreateVM(VMConfig{
		Name: "server", IP: IP("10.0.2.1"), Mode: ModeNetKernel,
		NSM: NSMSpec{Form: FormModule, CC: "cubic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := h1.CreateVM(VMConfig{
		Name: "client", IP: IP("10.0.1.1"), Mode: ModeNetKernel,
		Profile: ProfileWindows,
		NSM:     NSMSpec{Form: FormModule, CC: "bbr"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond) // module boot

	// Echo server.
	srv := server.Guest
	lfd := srv.Socket(Callbacks{})
	srv.SetCallbacks(lfd, Callbacks{OnAcceptable: func() {
		fd, ok := srv.Accept(lfd)
		if !ok {
			return
		}
		buf := make([]byte, 4096)
		srv.SetCallbacks(fd, Callbacks{OnReadable: func() {
			n, _ := srv.Recv(fd, buf)
			if n > 0 {
				srv.Send(fd, buf[:n])
			}
		}})
	}})
	if err := srv.Listen(lfd, 7, 8); err != nil {
		t.Fatal(err)
	}

	// Client.
	cli := client.Guest
	var got bytes.Buffer
	fd := cli.Socket(Callbacks{})
	cli.SetCallbacks(fd, Callbacks{
		OnEstablished: func(err error) {
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			cli.Send(fd, []byte("ping over NSaaS"))
		},
		OnReadable: func() {
			buf := make([]byte, 4096)
			n, _ := cli.Recv(fd, buf)
			got.Write(buf[:n])
		},
	})
	if err := cli.Connect(fd, server.IP, 7); err != nil {
		t.Fatal(err)
	}
	c.Run(500 * time.Millisecond)

	if got.String() != "ping over NSaaS" {
		t.Fatalf("echo returned %q", got.String())
	}
	// The Windows guest's traffic ran BBR (the §4.3 flexibility claim).
	found := ""
	client.NSM.Stack.Conns(func(conn *Conn) { found = conn.CongestionControl().Name() })
	if found != "bbr" {
		t.Fatalf("client NSM ran %q", found)
	}
}

func TestClusterClockAndHosts(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 7})
	if c.Now() != 0 {
		t.Fatal("fresh cluster not at time zero")
	}
	c.AddHost("a")
	c.AddHost("b")
	c.Run(time.Second)
	if c.Now() != time.Second {
		t.Fatalf("Now = %v", c.Now())
	}
	fired := false
	c.Clock().AfterFunc(time.Millisecond, func() { fired = true })
	c.Run(time.Millisecond)
	if !fired {
		t.Fatal("clock callback never ran")
	}
}

// TestCongestionControlCatalogue checks each stack flavor the package
// doc names through the public surface: an NSM booted with that CC
// carries a client connection under it.
func TestCongestionControlCatalogue(t *testing.T) {
	for _, cc := range []string{"reno", "cubic", "bbr", "ctcp", "dctcp"} {
		c := NewCluster(ClusterConfig{})
		h1 := c.AddHost("h1")
		h2 := c.AddHost("h2")
		c.ConnectHosts(h1, h2, Testbed40G())
		server, err := h2.CreateVM(VMConfig{Name: "s", IP: IP("10.0.2.1"), Mode: ModeNetKernel, NSM: NSMSpec{Form: FormModule}})
		if err != nil {
			t.Fatal(err)
		}
		client, err := h1.CreateVM(VMConfig{
			Name: "c", IP: IP("10.0.1.1"), Mode: ModeNetKernel,
			NSM: NSMSpec{Form: FormModule, CC: cc},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(50 * time.Millisecond) // module boot
		lfd := server.Guest.Socket(Callbacks{})
		if err := server.Guest.Listen(lfd, 7, 8); err != nil {
			t.Fatal(err)
		}
		if err := client.Guest.Connect(client.Guest.Socket(Callbacks{}), server.IP, 7); err != nil {
			t.Fatal(err)
		}
		c.Run(10 * time.Millisecond)
		found := ""
		client.NSM.Stack.Conns(func(conn *Conn) { found = conn.CongestionControl().Name() })
		if found != cc {
			t.Errorf("NSM booted with %q ran %q", cc, found)
		}
	}
}

func TestIPHelper(t *testing.T) {
	if IP("10.1.2.3") != (Addr{10, 1, 2, 3}) {
		t.Fatal("IP parse broken")
	}
}

func TestLinkPresets(t *testing.T) {
	if Testbed40G().Rate != 40*Gbps {
		t.Fatal("testbed preset broken")
	}
	if WANPath(0.003).LossProb != 0.003 {
		t.Fatal("WAN preset broken")
	}
}

func TestLegacyModeThroughPublicAPI(t *testing.T) {
	c := NewCluster(ClusterConfig{})
	h1 := c.AddHost("h1")
	h2 := c.AddHost("h2")
	c.ConnectHosts(h1, h2, Testbed40G())
	vm1, err := h1.CreateVM(VMConfig{Name: "l1", IP: IP("10.0.1.1"), Mode: ModeLegacy, Profile: ProfileFreeBSD})
	if err != nil {
		t.Fatal(err)
	}
	if vm1.Legacy == nil || vm1.Legacy.DefaultCC() != "reno" {
		t.Fatal("FreeBSD legacy stack should default to reno")
	}
}

// A cluster's hosts share one huge-page pool: three NetKernel tenants on
// each of two hosts echo a message, each pair backing the units it
// touched, and the two hosts together back ⌈Σ units / 32⌉ pages — one
// page here, not one per host.
func TestClusterHostsShareHugePages(t *testing.T) {
	const tenants = 3
	c := NewCluster(ClusterConfig{})
	h1 := c.AddHost("h1")
	h2 := c.AddHost("h2")
	c.ConnectHosts(h1, h2, Testbed40G())
	if h1.HugePages != h2.HugePages {
		t.Fatal("the cluster's hosts have pools of their own")
	}
	var vms []*VM
	echoed := 0
	for i := 0; i < tenants; i++ {
		nsm := NSMSpec{Form: FormModule, CC: "cubic"}
		srv, err := h2.CreateVM(VMConfig{Name: fmt.Sprintf("srv%d", i), IP: IP(fmt.Sprintf("10.0.2.%d", i+1)), Mode: ModeNetKernel, NSM: nsm})
		if err != nil {
			t.Fatal(err)
		}
		cli, err := h1.CreateVM(VMConfig{Name: fmt.Sprintf("cli%d", i), IP: IP(fmt.Sprintf("10.0.1.%d", i+1)), Mode: ModeNetKernel, NSM: nsm})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, srv, cli)
	}
	c.Run(50 * time.Millisecond) // module boot
	for i := 0; i < tenants; i++ {
		srv, cli := vms[2*i].Guest, vms[2*i+1].Guest
		buf := make([]byte, 4096)
		lfd := srv.Socket(Callbacks{})
		srv.SetCallbacks(lfd, Callbacks{OnAcceptable: func() {
			fd, ok := srv.Accept(lfd)
			if !ok {
				return
			}
			srv.SetCallbacks(fd, Callbacks{OnReadable: func() {
				if n, _ := srv.Recv(fd, buf); n > 0 {
					srv.Send(fd, buf[:n])
				}
			}})
		}})
		if err := srv.Listen(lfd, 7, 8); err != nil {
			t.Fatal(err)
		}
		fd := cli.Socket(Callbacks{})
		cli.SetCallbacks(fd, Callbacks{
			OnEstablished: func(err error) {
				if err == nil {
					cli.Send(fd, []byte("ping"))
				}
			},
			OnReadable: func() {
				if n, _ := cli.Recv(fd, make([]byte, 64)); n > 0 {
					echoed++
				}
			},
		})
		if err := cli.Connect(fd, vms[2*i].IP, 7); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(500 * time.Millisecond)
	if echoed != tenants {
		t.Fatalf("%d of %d tenants' echoes came back", echoed, tenants)
	}

	units := 0
	for _, vm := range vms {
		for _, pair := range vm.Guest.Pairs() {
			if pair.Pages.UnitSize() != shm.UnitSize {
				t.Fatalf("%s's pair backs %d-byte units, want %d", vm.Name, pair.Pages.UnitSize(), shm.UnitSize)
			}
			if pair.Pages.Resident() == 0 {
				t.Errorf("%s's pair backs no unit after an echo", vm.Name)
			}
			units += pair.Pages.Resident()
		}
	}
	perPage := shm.PageSize / shm.UnitSize
	if got, want := h1.HugePages.Pages(), (units+perPage-1)/perPage; got != want {
		t.Fatalf("the hosts back %d huge pages for %d units, want %d", got, units, want)
	}
}
