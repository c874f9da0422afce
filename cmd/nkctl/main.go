// Command nkctl boots a demonstration NetKernel cloud and reports on
// it like an operator console: inventory, live traffic, per-tenant SLA
// compliance, and the §5 pricing models applied to metered usage.
//
// Usage:
//
//	nkctl [-tenants N] [-duration D]          operator demo (default)
//	nkctl [-filter PREFIX] stats              unified telemetry snapshot
//	nkctl [-sample N] trace                   per-nqe pipeline spans
//	nkctl [-cc NAME] migrate                  live NSM migration demo
package main

import (
	"flag"
	"fmt"
	"time"

	"netkernel"
	"netkernel/internal/pricing"
)

var (
	tenants  = flag.Int("tenants", 3, "tenant VMs to provision")
	duration = flag.Duration("duration", 2*time.Second, "simulated runtime")
	sample   = flag.Int("sample", 64, "trace: sample every Nth operation")
	filter   = flag.String("filter", "", "stats: comma-free metric name prefix to keep")
	migCC    = flag.String("cc", "bbr", "migrate: congestion control the successor modules run (hot-swaps live flows)")
)

func main() {
	flag.Parse()
	switch flag.Arg(0) {
	case "", "demo":
		demo()
	case "stats":
		runStats()
	case "trace":
		runTrace()
	case "migrate":
		runMigrate()
	default:
		fmt.Printf("nkctl: unknown command %q (want demo, stats, trace, or migrate)\n", flag.Arg(0))
	}
}

// cloud is a booted two-host demo world with running tenant traffic.
type cloud struct {
	c       *netkernel.Cluster
	h1, h2  *netkernel.Host
	vms     []*netkernel.VM
	meters  []*pricing.Meter
	started time.Duration
}

// buildCloud provisions the demo deployment: a server VM on host2 and
// -tenants VMs on host1, odd tenants multiplexed onto a shared NSM.
// traceEvery > 0 arms per-nqe span tracing on both hosts.
func buildCloud(traceEvery int) *cloud {
	c := netkernel.NewCluster(netkernel.ClusterConfig{
		Seed: 42, PerPacketCost: 470 * time.Nanosecond,
		Host: func(hc *netkernel.HostConfig) { hc.TraceSampleEvery = traceEvery },
	})
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	c.ConnectHosts(h1, h2, netkernel.Testbed40G())

	server, err := h2.CreateVM(netkernel.VMConfig{
		Name: "server", IP: netkernel.IP("10.0.2.1"), Mode: netkernel.ModeNetKernel,
		NSM: netkernel.NSMSpec{Form: netkernel.FormModule, CC: "cubic"},
	})
	if err != nil {
		panic(err)
	}

	ccs := []string{"cubic", "bbr", "dctcp", "reno", "ctcp"}
	var vms []*netkernel.VM
	var shared *netkernel.NSM
	for i := 0; i < *tenants; i++ {
		spec := netkernel.NSMSpec{
			Form:         netkernel.FormContainer,
			CC:           ccs[i%len(ccs)],
			RateLimitBps: float64(2-i%2) * 1e9, // alternate 2 and 1 Gbit/s SLAs
		}
		if shared != nil && i%2 == 1 {
			spec.ShareWith = shared // odd tenants share the first NSM
		}
		// A dedicated NSM carries its own network identity; tenants
		// multiplexed onto a shared NSM share its address.
		ip := netkernel.Addr{10, 0, 1, byte(1 + i)}
		if spec.ShareWith != nil {
			ip = shared.Stack.Interface().IP
		}
		vm, err := h1.CreateVM(netkernel.VMConfig{
			Name: fmt.Sprintf("tenant%d", i), IP: ip,
			Mode: netkernel.ModeNetKernel, NSM: spec,
		})
		if err != nil {
			panic(err)
		}
		if shared == nil {
			shared = vm.NSM
		}
		vms = append(vms, vm)
	}
	c.Run(500 * time.Millisecond) // boots
	w := &cloud{c: c, h1: h1, h2: h2, vms: vms}
	w.meters = startTraffic(c, server, vms)
	return w
}

func demo() {
	fmt.Println("nkctl: booting a two-host NetKernel cloud")
	w := buildCloud(0)
	c, h1, h2, vms := w.c, w.h1, w.h2, w.vms

	fmt.Printf("\ninventory: host1 %d VMs / %d NSMs, host2 %d VMs / %d NSMs\n",
		h1.VMs(), h1.NSMs(), h2.VMs(), h2.NSMs())
	h1.EachNSM(func(n *netkernel.NSM) {
		fmt.Printf("  nsm%-3d form=%-9s cc=%-6s tenants=%d mem=%dMB isolation=%s\n",
			n.ID, n.Form, n.CC, n.Tenants(), n.Profile.MemoryMB, n.Profile.Isolation)
	})

	// Registry-fed SLA trackers (the registry samples each tenant's
	// ServiceLib ingress; no hand-fed closures).
	var slas []*netkernel.ThroughputSLA
	for i, vm := range vms {
		tr := netkernel.NewVMThroughputSLA(c, h1, vm, float64(2-i%2)*1e9*0.9, 100*time.Millisecond)
		tr.Start()
		slas = append(slas, tr)
	}

	c.Run(*duration)

	fmt.Println("\nper-tenant usage and invoices:")
	models := pricing.DefaultModels()
	for i, m := range w.meters {
		u := m.Snapshot()
		fmt.Printf("  tenant%d: %.1f MB out, %v CPU busy, %d peak conns — %s\n",
			i, float64(u.BytesOut)/1e6, u.CPUBusy.Round(time.Microsecond), u.PeakConns, slas[i])
		for _, line := range pricing.Invoice(u, models...) {
			fmt.Printf("    %-14s %v\n", line.Model, line.Amount)
		}
	}
	fmt.Printf("\nsimulated %v in %s of wall time\n", c.Now(), "(instantaneous)")
}

// runStats boots the demo cloud, drives traffic, and dumps the unified
// telemetry registry of both hosts.
func runStats() {
	w := buildCloud(0)
	w.c.Run(*duration)
	for _, h := range []*netkernel.Host{w.h1, w.h2} {
		snap := h.Snapshot()
		if *filter != "" {
			snap = snap.Filter(*filter)
		}
		fmt.Printf("== %s ==\n%s", h.Name(), snap.String())
	}
}

// runTrace boots the demo cloud with sampling tracing armed and prints
// the completed per-nqe spans: each hop of an operation's journey
// through the pipeline, stamped in virtual time.
func runTrace() {
	if *sample < 1 {
		*sample = 1
	}
	w := buildCloud(*sample)
	w.c.Run(*duration)
	for _, h := range []*netkernel.Host{w.h1, w.h2} {
		spans := h.Tracer.Completed()
		fmt.Printf("== %s: %d completed spans (sampling 1 in %d) ==\n", h.Name(), len(spans), *sample)
		for _, sp := range spans {
			fmt.Println("  " + sp.Format())
		}
	}
}

// runMigrate boots the demo cloud, runs traffic, then migrates every
// NSM on host1, one module at a time in ID order, onto a fresh module
// running -cc (a live congestion-control hot-swap for every in-flight
// connection), and proves the traffic kept flowing.
func runMigrate() {
	fmt.Println("nkctl: booting a two-host NetKernel cloud")
	w := buildCloud(0)
	c, h1 := w.c, w.h1
	c.Run(*duration / 2)

	before := make([]uint64, len(w.meters))
	for i, m := range w.meters {
		before[i] = m.Snapshot().BytesOut
	}

	fmt.Printf("\nmigrating %d NSMs on host1 to cc=%s, one at a time\n", h1.NSMs(), *migCC)
	var modules []*netkernel.NSM
	h1.EachNSM(func(n *netkernel.NSM) { modules = append(modules, n) })
	for _, n := range modules {
		var m *netkernel.Migration
		if _, err := h1.MigrateNSM(n, netkernel.NSMSpec{Form: n.Form, CC: *migCC}, netkernel.MigrateOptions{}, func(done *netkernel.Migration) { m = done }); err != nil {
			fmt.Printf("  nsm%-3d refused: %v\n", n.ID, err)
			continue
		}
		for m == nil {
			c.Run(100 * time.Millisecond) // successor boot times vary by form
		}
		status := "ok"
		if m.Aborted {
			status = fmt.Sprintf("ABORTED (%v)", m.Err)
		}
		fmt.Printf("  nsm%-3d → nsm%-3d %-7s vms=%d conns=%d stall=%v\n",
			m.From.ID, m.To.ID, status, m.VMs, m.Conns, m.Stall)
	}
	c.Run(*duration / 2)

	fmt.Println("\npost-migration traffic (bytes out since cutover):")
	for i, m := range w.meters {
		fmt.Printf("  tenant%d: %.1f MB\n", i, float64(m.Snapshot().BytesOut-before[i])/1e6)
	}
	fmt.Printf("\nsimulated %v in %s of wall time\n", c.Now(), "(instantaneous)")
}

// startTraffic wires an echo sink on the server and a bulk sender per
// tenant, returning a pricing meter per tenant.
func startTraffic(c *netkernel.Cluster, server *netkernel.VM, vms []*netkernel.VM) []*pricing.Meter {
	srv := server.Guest
	lfd := srv.Socket(netkernel.Callbacks{})
	srv.SetCallbacks(lfd, netkernel.Callbacks{OnAcceptable: func() {
		for {
			fd, ok := srv.Accept(lfd)
			if !ok {
				return
			}
			buf := make([]byte, 256<<10)
			srv.SetCallbacks(fd, netkernel.Callbacks{OnReadable: func() {
				for {
					n, _ := srv.Recv(fd, buf)
					if n == 0 {
						return
					}
				}
			}})
		}
	}})
	if err := srv.Listen(lfd, 9000, 64); err != nil {
		panic(err)
	}

	var meters []*pricing.Meter
	payload := make([]byte, 64<<10)
	for _, vm := range vms {
		g := vm.Guest
		var fd int32
		pump := func() {
			for g.Send(fd, payload) > 0 {
			}
		}
		fd = g.Socket(netkernel.Callbacks{
			OnEstablished: func(err error) {
				if err == nil {
					pump()
				}
			},
			OnWritable: pump,
		})
		if err := g.Connect(fd, server.IP, 9000); err != nil {
			panic(err)
		}

		// Sample through vm.NSM live rather than a captured pointer, so
		// the meters keep working across a live migration.
		vm := vm
		svc := vm.Service
		nsm := vm.NSM
		m := pricing.NewMeter(c.Clock(), nsm.Form.String(), nsm.CPU.Cores(), nsm.Profile.MemoryMB,
			2e9,
			func() time.Duration { return vm.NSM.CPU.TotalBusy() },
			func() (uint64, uint64) { st := svc.Stats(); return uint64(st.DataIn), uint64(st.DataOut) },
			func() int { return vm.NSM.Stack.ConnCount() },
		)
		m.StartSampling(100 * time.Millisecond)
		meters = append(meters, m)
	}
	return meters
}
