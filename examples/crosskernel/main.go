// Crosskernel reproduces the paper's §4.3 flexibility experiment end
// to end: a Windows VM — whose own kernel only speaks C-TCP — serves a
// bulk upload over a lossy 12 Mbit/s, 350 ms WAN using Google's BBR,
// because its Network Stack Module runs BBR. Three baselines show what
// the same transfer achieves with native guest stacks.
//
// Run with: go run ./examples/crosskernel
package main

import (
	"fmt"
	"time"

	"netkernel"
)

const (
	lossProb = 0.003 // calibrated against the paper; see EXPERIMENTS.md
	warmup   = 10 * time.Second
	measure  = 10 * time.Second
)

func main() {
	fmt.Println("crosskernel: Beijing server → California client")
	fmt.Println("12 Mbit/s uplink, 350 ms RTT, random loss (§4.3)")
	fmt.Println()
	fmt.Printf("%-26s %s\n", "scenario", "upload throughput")

	type scenario struct {
		label   string
		useNSM  bool
		profile netkernel.GuestProfile
		cc      string
	}
	for _, sc := range []scenario{
		{"Windows VM + BBR NSM", true, netkernel.ProfileWindows, "bbr"},
		{"Linux VM, native BBR", false, netkernel.ProfileLinux, "bbr"},
		{"Windows VM, C-TCP", false, netkernel.ProfileWindows, ""},
		{"Linux VM, CUBIC", false, netkernel.ProfileLinux, ""},
	} {
		bps := run(sc.useNSM, sc.profile, sc.cc)
		fmt.Printf("%-26s %6.2f Mbit/s\n", sc.label, bps/1e6)
	}
	fmt.Println("\npaper: BBR NSM 11.12, Linux BBR 11.14, Windows CTCP 8.60, Linux Cubic 2.61")
}

// run measures one scenario's upload throughput in bits per second.
// The sender runs the same program on its NSM or its own stack: only
// the VM's mode and congestion control differ.
func run(useNSM bool, profile netkernel.GuestProfile, cc string) float64 {
	c := netkernel.NewCluster(netkernel.ClusterConfig{Seed: 5})
	beijing := c.AddHost("beijing")
	california := c.AddHost("california")
	c.ConnectHosts(beijing, california, netkernel.WANPath(lossProb))

	// The receiving client in California: an ordinary Linux VM whose
	// in-guest stack accepts and drains the upload.
	client, err := california.CreateVM(netkernel.VMConfig{
		Name: "client", IP: netkernel.IP("10.0.2.1"), Mode: netkernel.ModeLegacy,
	})
	must(err)
	var received uint64
	cs := client.Sockets
	lfd := cs.Socket(netkernel.Callbacks{})
	must(cs.SetCallbacks(lfd, netkernel.Callbacks{OnAcceptable: func() {
		fd, ok := cs.Accept(lfd)
		if !ok {
			return
		}
		buf := make([]byte, 256<<10)
		must(cs.SetCallbacks(fd, netkernel.Callbacks{OnReadable: func() {
			for {
				n, _ := cs.Recv(fd, buf)
				if n == 0 {
					return
				}
				received += uint64(n)
			}
		}}))
	}}))
	must(cs.Listen(lfd, 443, 4))

	// The sending server in Beijing, per scenario.
	mode := netkernel.ModeLegacy
	if useNSM {
		mode = netkernel.ModeNetKernel
	}
	server, err := beijing.CreateVM(netkernel.VMConfig{
		Name: "server", IP: netkernel.IP("10.0.1.1"), Profile: profile, Mode: mode,
		NSM: netkernel.NSMSpec{Form: netkernel.FormVM, CC: cc},
	})
	must(err)
	if useNSM {
		c.Run(4 * time.Second) // NSM VM boot
	} else if cc != "" {
		server.Legacy.SetDefaultCC(cc) // a Linux guest with BBR built in
	}
	upload(server.Sockets, client.IP)

	c.Run(warmup)
	start := received
	c.Run(measure)
	return float64(received-start) * 8 / measure.Seconds()
}

var payload = make([]byte, 64<<10)

// upload pumps data to dst through the VM's socket API.
func upload(s netkernel.Sockets, dst netkernel.Addr) {
	var fd int32
	pump := func() {
		for s.Send(fd, payload) > 0 {
		}
	}
	fd = s.Socket(netkernel.Callbacks{
		OnEstablished: func(err error) {
			must(err)
			pump()
		},
		OnWritable: pump,
	})
	must(s.Connect(fd, dst, 443))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
