// Containers demonstrates the §5 NSaaS-for-containers scenario: "A
// container running a Spark task may use DCTCP for its traffic, while
// a web server container may need BBR or CUBIC."
//
// Today a container is stuck with its host's stack; with NSaaS each
// container attaches to the NSM whose stack fits its workload. Here a
// Spark-like shuffle container on host1 runs DCTCP (with ECN marking
// on the fabric, keeping the switch queue shallow) and a web container
// on the same host runs BBR — per-container stacks on one machine.
//
// Run with: go run ./examples/containers
package main

import (
	"fmt"
	"time"

	"netkernel"
)

// window is how long each phase is measured.
const window = 250 * time.Millisecond

func main() {
	c := netkernel.NewCluster(netkernel.ClusterConfig{Seed: 3})
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")

	// A datacenter fabric with DCTCP-style ECN marking: CE above a
	// shallow queue threshold.
	ab, _ := c.ConnectHosts(h1, h2, netkernel.LinkConfig{
		Rate: 10 * netkernel.Gbps, Delay: 40 * time.Microsecond,
		QueueBytes: 2 << 20, ECNThresholdBytes: 90 << 10,
		Marker: netkernel.MarkCE,
	})

	// Two "containers" on host1 (a container attaches to an NSM exactly
	// like a VM: it is a process using GuestLib instead of the host's
	// stack). Each gets the stack its workload wants.
	spark, err := h1.CreateVM(netkernel.VMConfig{
		Name: "spark-shuffle", IP: netkernel.IP("10.0.1.1"),
		Mode: netkernel.ModeNetKernel,
		NSM:  netkernel.NSMSpec{Form: netkernel.FormContainer, CC: "dctcp"},
	})
	must(err)
	web, err := h1.CreateVM(netkernel.VMConfig{
		Name: "web-server", IP: netkernel.IP("10.0.1.2"),
		Mode: netkernel.ModeNetKernel,
		NSM:  netkernel.NSMSpec{Form: netkernel.FormContainer, CC: "bbr"},
	})
	must(err)

	// Peers on host2.
	sparkPeer, err := h2.CreateVM(netkernel.VMConfig{
		Name: "spark-peer", IP: netkernel.IP("10.0.2.1"),
		Mode: netkernel.ModeNetKernel,
		NSM:  netkernel.NSMSpec{Form: netkernel.FormContainer, CC: "dctcp"},
	})
	must(err)
	webClient, err := h2.CreateVM(netkernel.VMConfig{
		Name: "web-client", IP: netkernel.IP("10.0.2.2"),
		Mode: netkernel.ModeNetKernel,
		NSM:  netkernel.NSMSpec{Form: netkernel.FormContainer, CC: "cubic"},
	})
	must(err)
	c.Run(500 * time.Millisecond) // container boots

	fmt.Println("two containers, one host, each with the stack its workload wants:")

	// Phase 1: the Spark shuffle, DCTCP over the marking fabric.
	sparkBytes := startSink(sparkPeer, 7077)
	startBulk(spark, sparkPeer.IP, 7077)
	peakQ := 0
	probe := func() {}
	probe = func() {
		if q := ab.QueuedBytes(); q > peakQ {
			peakQ = q
		}
		c.Clock().AfterFunc(100*time.Microsecond, probe)
	}
	probe()
	c.Run(window)
	report(spark, *sparkBytes, window)
	fmt.Printf("      fabric during shuffle: %d CE marks, peak queue %d KB (threshold 90 KB)\n",
		ab.Stats().ECNMarks, peakQ>>10)

	// Phase 2: the web transfer, BBR.
	webBytes := startSink(webClient, 80)
	startBulk(web, webClient.IP, 80)
	c.Run(window)
	report(web, *webBytes, window)

	fmt.Println("\nwithout NSaaS both containers would share the host kernel's single stack.")
}

func report(vm *netkernel.VM, bytes uint64, window time.Duration) {
	cc, echoes := "", uint64(0)
	var srtt time.Duration
	vm.NSM.Stack.Conns(func(conn *netkernel.Conn) {
		cc = conn.CongestionControl().Name()
		echoes = conn.Stats().ECNEchoes
		srtt = conn.Stats().SRTT
	})
	fmt.Printf("  %-14s stack=%-6s %7.2f Gbit/s, srtt %v, ECN echoes %d\n",
		vm.Name, cc, float64(bytes)*8/window.Seconds()/1e9, srtt.Round(time.Microsecond), echoes)
}

var payload = make([]byte, 64<<10)

func startSink(vm *netkernel.VM, port uint16) *uint64 {
	var received uint64
	g := vm.Guest
	lfd := g.Socket(netkernel.Callbacks{})
	g.SetCallbacks(lfd, netkernel.Callbacks{OnAcceptable: func() {
		fd, ok := g.Accept(lfd)
		if !ok {
			return
		}
		buf := make([]byte, 256<<10)
		g.SetCallbacks(fd, netkernel.Callbacks{OnReadable: func() {
			for {
				n, _ := g.Recv(fd, buf)
				if n == 0 {
					return
				}
				received += uint64(n)
			}
		}})
	}})
	must(g.Listen(lfd, port, 8))
	return &received
}

func startBulk(vm *netkernel.VM, dst netkernel.Addr, port uint16) {
	g := vm.Guest
	var fd int32
	pump := func() {
		for g.Send(fd, payload) > 0 {
		}
	}
	fd = g.Socket(netkernel.Callbacks{
		OnEstablished: func(err error) {
			must(err)
			pump()
		},
		OnWritable: pump,
	})
	must(g.Connect(fd, dst, port))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
