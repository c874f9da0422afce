package experiments

import (
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/nkqueue"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

// The ablations quantify the §5 research-agenda design choices that
// DESIGN.md calls out: notification mechanism, priority queues, NSM
// form, multiplexing with QoS, and synchronous vs asynchronous
// operation.

func ablationWorld(seed uint64, mutate func(hc *hypervisor.HostConfig)) *World {
	return NewWorld(WorldConfig{
		Link: netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 20 * time.Microsecond,
			QueueBytes: 4 << 20, FrameOverhead: netsim.EthernetOverhead},
		Cores:  8,
		Seed:   seed,
		MinRTO: 10 * time.Millisecond,
		Mutate: mutate,
	})
}

// connectLatency measures one fresh connection's setup time through
// the NetKernel path (Socket+Connect → Established).
func connectLatency(w *World, client, server *hypervisor.VM, port uint16) time.Duration {
	lfd := server.Guest.Socket(guestlib.Callbacks{})
	server.Guest.Listen(lfd, port, 64)

	var done sim.Time = -1
	start := w.Loop.Now()
	fd := client.Guest.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err == nil {
				done = w.Loop.Now()
			}
		},
	})
	client.Guest.Connect(fd, server.IP, port)
	for i := 0; i < 10000 && done < 0; i++ {
		w.Loop.RunFor(10 * time.Microsecond)
	}
	if done < 0 {
		return -1
	}
	return done.Sub(start)
}

// --- Notification modes (§5 "Resource efficiency and optimization") ---

// NotifyRow compares a notification configuration.
type NotifyRow struct {
	Mode          string
	NotifyLatency time.Duration
	ConnectRTT    time.Duration
	ThroughputBps float64
	// EngineCPU describes the CPU the mode burns: polling dedicates a
	// core; interrupts idle between batches.
	EngineCPU string
}

// RunNotifyAblation compares polling (the prototype's choice, §4.1
// "GuestLib uses polling to process the queues for simplicity") with
// progressively lazier batched interrupts (§5 suggests "more efficient
// soft interrupts (with batching) or hypercalls").
func RunNotifyAblation() []NotifyRow {
	cases := []struct {
		mode    string
		latency time.Duration
		cpu     string
	}{
		{"polling", 100 * time.Nanosecond, "1 dedicated core, always busy"},
		{"interrupt-1us", 1 * time.Microsecond, "idle between wakeups"},
		{"interrupt-5us", 5 * time.Microsecond, "idle between wakeups"},
		{"interrupt-20us", 20 * time.Microsecond, "idle between wakeups"},
	}
	rows := make([]NotifyRow, 0, len(cases))
	for i, tc := range cases {
		lat := tc.latency
		w := ablationWorld(uint64(10+i), func(hc *hypervisor.HostConfig) {
			hc.Engine.NotifyLatency = lat
		})
		spec := hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic"}
		client, _ := w.H1.CreateVM(hypervisor.VMConfig{Name: "c", IP: SenderIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
		server, _ := w.H2.CreateVM(hypervisor.VMConfig{Name: "s", IP: ReceiverIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
		w.Loop.RunFor(50 * time.Millisecond)

		rtt := connectLatency(w, client, server, 7000)
		fl := StartFlow(w, client, server, 7001)
		tput := MeasureGoodput(w, []*Flow{fl}, 100*time.Millisecond, 100*time.Millisecond)
		rows = append(rows, NotifyRow{
			Mode: tc.mode, NotifyLatency: lat, ConnectRTT: rtt,
			ThroughputBps: tput, EngineCPU: tc.cpu,
		})
	}
	return rows
}

// --- Priority queues (§3.2 head-of-line blocking) ---

// PriorityRow compares queue disciplines under bulk-data pressure.
type PriorityRow struct {
	Priority       bool
	ConnectLatency time.Duration // mean, under concurrent bulk transfer
	ThroughputBps  float64
}

// RunPriorityAblation measures connection-setup latency while a bulk
// transfer floods the same queues, with and without the §3.2 priority
// split ("to avoid the head of line blocking").
func RunPriorityAblation() []PriorityRow {
	rows := make([]PriorityRow, 0, 2)
	for _, priority := range []bool{false, true} {
		w := ablationWorld(20, func(hc *hypervisor.HostConfig) {
			// Head-of-line blocking needs standing queues: small rings, a
			// deep shm window, and an engine that wakes only every 100 µs,
			// so between pumps the data flood keeps the rings full and a
			// connection event must either wait for slots (single queue)
			// or bypass them (priority pair).
			hc.Chan.Queue = nkqueue.Config{Slots: 8, Priority: priority}
			hc.ShmWindow = 4 << 20
			hc.Engine.NotifyLatency = 100 * time.Microsecond
		})
		spec := hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic"}
		client, _ := w.H1.CreateVM(hypervisor.VMConfig{Name: "c", IP: SenderIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
		server, _ := w.H2.CreateVM(hypervisor.VMConfig{Name: "s", IP: ReceiverIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
		w.Loop.RunFor(50 * time.Millisecond)

		// Saturating bulk flow.
		fl := StartFlow(w, client, server, 7001)
		w.Loop.RunFor(100 * time.Millisecond)

		// Now time connection setups competing with the data flood.
		var total time.Duration
		const attempts = 10
		for i := 0; i < attempts; i++ {
			d := connectLatency(w, client, server, uint16(7100+i))
			if d < 0 {
				d = time.Second // timed out entirely
			}
			total += d
		}
		start := fl.Received
		w.Loop.RunFor(100 * time.Millisecond)
		tput := float64(fl.Received-start) * 8 / 0.1
		rows = append(rows, PriorityRow{
			Priority:       priority,
			ConnectLatency: total / attempts,
			ThroughputBps:  tput,
		})
	}
	return rows
}

// --- NSM forms (§5 "NSM form") ---

// FormRow compares NSM realizations.
type FormRow struct {
	Form          hypervisor.NSMForm
	BootTime      time.Duration
	ConnectRTT    time.Duration
	ThroughputBps float64
	MemoryMB      int
	Isolation     string
}

// RunFormAblation quantifies the §5 form tradeoffs.
func RunFormAblation() []FormRow {
	forms := []hypervisor.NSMForm{hypervisor.FormVM, hypervisor.FormUnikernel, hypervisor.FormContainer, hypervisor.FormModule}
	rows := make([]FormRow, 0, len(forms))
	for i, form := range forms {
		w := ablationWorld(uint64(30+i), nil)
		spec := hypervisor.NSMSpec{Form: form, CC: "cubic"}
		client, _ := w.H1.CreateVM(hypervisor.VMConfig{Name: "c", IP: SenderIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
		server, _ := w.H2.CreateVM(hypervisor.VMConfig{Name: "s", IP: ReceiverIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
		prof := client.NSM.Profile
		w.Loop.RunFor(prof.BootTime + 50*time.Millisecond)

		rtt := connectLatency(w, client, server, 7000)
		fl := StartFlow(w, client, server, 7001)
		tput := MeasureGoodput(w, []*Flow{fl}, 100*time.Millisecond, 100*time.Millisecond)
		rows = append(rows, FormRow{
			Form: form, BootTime: prof.BootTime, ConnectRTT: rtt,
			ThroughputBps: tput, MemoryMB: prof.MemoryMB, Isolation: prof.Isolation,
		})
	}
	return rows
}

// --- Multiplexing + QoS (§2.1, §5) ---

// MuxRow compares NSM placement strategies for multiple tenants.
type MuxRow struct {
	Strategy     string
	Tenants      int
	NSMs         int
	MemoryMB     int
	AggregateBps float64
	// PerTenantBps lists each tenant's share (QoS rows show enforced
	// splits).
	PerTenantBps []float64
}

// RunMuxAblation compares dedicated NSMs, a shared NSM, and a shared
// NSM with 2:1:1 rate SLAs across three tenants.
func RunMuxAblation() []MuxRow {
	const tenants = 3
	run := func(strategy string) MuxRow {
		w := ablationWorld(40, func(hc *hypervisor.HostConfig) {
			hc.ShmWindow = 4 << 20
		})
		server, _ := w.H2.CreateVM(hypervisor.VMConfig{
			Name: "s", IP: ReceiverIP, Mode: hypervisor.ModeNetKernel,
			NSM: hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic"},
		})

		vms := make([]*hypervisor.VM, tenants)
		var first *hypervisor.NSM
		for i := 0; i < tenants; i++ {
			spec := hypervisor.NSMSpec{Form: hypervisor.FormContainer, CC: "cubic"}
			switch strategy {
			case "shared", "shared+qos":
				if first != nil {
					spec.ShareWith = first
				}
			}
			if strategy == "shared+qos" {
				// 2:1:1 Gbit/s SLAs on a 10 Gbit/s fabric (underload, so
				// the limits bind).
				spec.RateLimitBps = []float64{2e9, 1e9, 1e9}[i]
			}
			// Dedicated NSMs carry their own network identity; tenants
			// multiplexed onto a shared NSM share its address.
			ip := ipv4.Addr{10, 0, 1, byte(1 + i)}
			if spec.ShareWith != nil {
				ip = SenderIP
			}
			vm, err := w.H1.CreateVM(hypervisor.VMConfig{
				Name: "t", IP: ip, Mode: hypervisor.ModeNetKernel, NSM: spec,
			})
			if err != nil {
				panic(err)
			}
			vms[i] = vm
			if first == nil {
				first = vm.NSM
			}
		}
		w.Loop.RunFor(400 * time.Millisecond) // container boot

		flows := make([]*Flow, tenants)
		for i, vm := range vms {
			flows[i] = StartFlow(w, vm, server, uint16(7001+i))
		}
		w.Loop.RunFor(100 * time.Millisecond)
		start := make([]uint64, tenants)
		for i, f := range flows {
			start[i] = f.Received
		}
		const window = 200 * time.Millisecond
		w.Loop.RunFor(window)

		row := MuxRow{Strategy: strategy, Tenants: tenants}
		mem := map[*hypervisor.NSM]bool{}
		w.H1.EachNSM(func(n *hypervisor.NSM) {
			mem[n] = true
			row.MemoryMB += n.Profile.MemoryMB
		})
		row.NSMs = len(mem)
		for i, f := range flows {
			bps := float64(f.Received-start[i]) * 8 / window.Seconds()
			row.PerTenantBps = append(row.PerTenantBps, bps)
			row.AggregateBps += bps
		}
		return row
	}
	return []MuxRow{run("dedicated"), run("shared"), run("shared+qos")}
}

// --- Sync vs async operations (§3.2) ---

// SyncRow compares operation pipelining regimes.
type SyncRow struct {
	Mode          string
	ThroughputBps float64
	OpsPerSec     float64
}

// RunSyncAblation compares asynchronous operation (deep shm credit,
// operations pipelined) against synchronous operation (one chunk
// outstanding: every send waits for its completion, §3.2 "the
// application is not returned … until it obtains an nqe from the VM
// completion queue").
func RunSyncAblation() []SyncRow {
	run := func(mode string, credit int) SyncRow {
		// A lazier notification config (10 µs) makes the per-operation
		// completion round trip visible; with sub-µs kicks even
		// fully synchronous operation keeps a 10G link busy.
		w := ablationWorld(50, func(hc *hypervisor.HostConfig) {
			hc.Engine.NotifyLatency = 10 * time.Microsecond
		})
		spec := hypervisor.NSMSpec{Form: hypervisor.FormModule, CC: "cubic"}
		client, err := w.H1.CreateVM(hypervisor.VMConfig{
			Name: "c", IP: SenderIP, Mode: hypervisor.ModeNetKernel, NSM: spec,
			SendCredit: credit,
		})
		if err != nil {
			panic(err)
		}
		server, _ := w.H2.CreateVM(hypervisor.VMConfig{Name: "s", IP: ReceiverIP, Mode: hypervisor.ModeNetKernel, NSM: spec})
		w.Loop.RunFor(50 * time.Millisecond)
		fl := StartFlow(w, client, server, 7001)
		tput := MeasureGoodput(w, []*Flow{fl}, 100*time.Millisecond, 200*time.Millisecond)
		st := client.Guest.Stats()
		return SyncRow{
			Mode:          mode,
			ThroughputBps: tput,
			OpsPerSec:     float64(st.OpsIssued) / w.Loop.Now().Duration().Seconds(),
		}
	}
	return []SyncRow{
		run("sync (1 chunk credit)", 8<<10),
		run("async (1 MiB credit)", 1<<20),
	}
}

// --- Scale-out (§2.1) ---

// ScaleOutRow compares NSM replica counts for one tenant.
type ScaleOutRow struct {
	Replicas     int
	AggregateBps float64
	CoreCapBps   float64 // the single-core ceiling for reference
}

// RunScaleOutAblation shows §2.1's "scale out with more modules to
// support higher throughput": a single 1-core NSM (the prototype's
// shape) caps the tenant's aggregate; spreading sockets across
// replicas lifts it to line rate.
func RunScaleOutAblation() []ScaleOutRow {
	const perPacket = 2 * time.Microsecond // 1 core ≈ 5.8 Gbit/s of 1460B segments
	coreCap := 1460 * 8 / perPacket.Seconds()
	rows := make([]ScaleOutRow, 0, 3)
	for _, replicas := range []int{1, 2, 3} {
		w := NewWorld(WorldConfig{
			Link: netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 20 * time.Microsecond,
				QueueBytes: 4 << 20, FrameOverhead: netsim.EthernetOverhead},
			PerPacketCost: perPacket,
			Cores:         8,
			Seed:          60 + uint64(replicas),
			MinRTO:        10 * time.Millisecond,
			Mutate: func(hc *hypervisor.HostConfig) {
				hc.SendBufSize = 4 << 20
				hc.RecvBufSize = 4 << 20
				hc.ShmWindow = 4 << 20
			},
		})
		sender, err := w.H1.CreateVM(hypervisor.VMConfig{
			Name: "snd", IP: SenderIP, Mode: hypervisor.ModeNetKernel,
			NSM: hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 1, Replicas: replicas},
		})
		if err != nil {
			panic(err)
		}
		receiver, _ := w.H2.CreateVM(hypervisor.VMConfig{
			Name: "rcv", IP: ReceiverIP, Mode: hypervisor.ModeNetKernel,
			NSM: hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 8},
		})
		w.Loop.RunFor(sender.NSM.Profile.BootTime + 50*time.Millisecond)

		// One flow per replica slot, so round-robin puts each on its own
		// module.
		flows := make([]*Flow, replicas)
		for i := range flows {
			flows[i] = StartFlow(w, sender, receiver, uint16(7001+i))
		}
		rows = append(rows, ScaleOutRow{
			Replicas:     replicas,
			AggregateBps: MeasureGoodput(w, flows, 300*time.Millisecond, 200*time.Millisecond),
			CoreCapBps:   coreCap,
		})
	}
	return rows
}
