package hypervisor

import (
	"fmt"
	"slices"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/netsim"
	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sched"
	"netkernel/internal/servicelib"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
	"netkernel/internal/telemetry"
	"netkernel/internal/vswitch"
)

// maskBits is the on-link prefix length: one flat 10/8 fabric,
// everything on-link.
const maskBits = 8

// HostConfig parameterizes one physical host.
type HostConfig struct {
	Name  string
	Clock sim.Clock
	RNG   *sim.RNG
	// HostID distinguishes MAC address ranges between hosts.
	HostID uint8
	// Cores is the host CPU size (default 8, the testbed's E5-2618LV3).
	Cores int
	// PerPacketCost models per-core stack processing (0 = free).
	PerPacketCost time.Duration
	// Engine configures the CoreEngine cost model.
	Engine EngineConfig
	// Chan configures VM↔NSM channels.
	Chan nkchan.Config
	// Shards turns on the multi-queue datapath (the journal version's
	// multi-core NSM): every VM↔NSM channel gets this many ring-set
	// shards, each NSM stack shards its connection table RxShards-wise
	// with RSS flow steering, and flows stay pinned to their shard for
	// life. 0 (the default) is the conference paper's single-queue
	// channel with round-robin core pinning; 1 models a single-queue
	// NSM whose flows all share core 0 — the scale-out baseline. Fixed
	// for the host's lifetime: NSM restarts reboot with the same shard
	// count. It overrides Chan.Shards.
	Shards int

	// TCP knobs inherited by every stack on the host.
	MinRTO      time.Duration
	MSL         time.Duration
	SendBufSize int
	RecvBufSize int
	// ShmWindow sizes the shared-memory flow-control windows
	// (GuestLib send credit, ServiceLib receive window). Default 1 MiB;
	// high-bandwidth-delay scenarios raise it alongside the TCP
	// buffers.
	ShmWindow int
	// HugePages, when set, is the huge-page pool every VM↔NSM pair on
	// this host carves its units from (a testbed's hosts share one, so
	// their pairs share pages); nil builds a private one, so
	// Host.HugePages is never nil.
	HugePages *shm.Pool
	// TraceSampleEvery enables per-nqe span tracing: every Nth
	// operation entering the pipeline is stamped at each hop (GuestLib
	// enqueue → engine pump → ServiceLib dispatch → stack TX, and the
	// mirror receive path). 0, the default, disables tracing.
	TraceSampleEvery int
}

// Host is one physical machine: NIC, overlay switch, cores, CoreEngine,
// and the VMs and NSMs placed on it.
type Host struct {
	cfg   HostConfig
	clock sim.Clock
	rng   *sim.RNG

	CPU    *netsim.CPU
	NIC    *netsim.NIC
	Switch *vswitch.Switch
	Engine *CoreEngine
	// HugePages is the host's huge-page pool, perhaps shared with other
	// hosts: every VM↔NSM pair's data region carves its units from these
	// pages (DESIGN.md §17).
	HugePages *shm.Pool

	// Metrics is the host's unified telemetry registry; every layer
	// registers its counters here under "<instance>.<subsystem>."
	// prefixes ("vm1.guest.", "nsm2.stack.", "engine.", …).
	Metrics *telemetry.Registry
	// Tracer samples per-nqe spans across the pipeline (nil-safe to
	// use; disabled unless HostConfig.TraceSampleEvery > 0).
	Tracer *telemetry.Tracer

	vms map[uint32]*VM
	// nsms holds the host's modules in ascending ID order: IDs are
	// issued in order and each new module is appended.
	nsms []*NSM

	nextVMID  uint32
	nextNSMID uint32
	macSeq    uint16
}

// NewHost builds a host.
func NewHost(cfg HostConfig) *Host {
	if cfg.Clock == nil {
		panic("hypervisor: HostConfig.Clock required")
	}
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(uint64(cfg.HostID) + 7)
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	cfg.Chan.Shards = cfg.Shards
	if cfg.HugePages == nil {
		cfg.HugePages = shm.NewPool()
	}
	h := &Host{
		cfg:       cfg,
		clock:     cfg.Clock,
		rng:       cfg.RNG,
		CPU:       netsim.NewCPU(cfg.Clock, cfg.Cores),
		vms:       make(map[uint32]*VM),
		HugePages: cfg.HugePages,
	}
	h.Metrics = telemetry.NewRegistry()
	h.Tracer = telemetry.NewTracer(telemetry.TraceConfig{
		Clock:       cfg.Clock,
		SampleEvery: cfg.TraceSampleEvery,
		Metrics:     h.Metrics.Scope("trace."),
	})
	h.NIC = netsim.NewNIC(cfg.Clock, h.newMAC())
	h.Switch = vswitch.New(cfg.Clock, vswitch.Config{})
	h.Switch.Publish(h.Metrics.Scope("switch."))
	h.Engine = NewCoreEngine(cfg.Clock, h.cfg.Engine)
	h.Engine.tracer = h.Tracer
	eng := h.Metrics.Scope("engine.")
	eng.Publish(&h.Engine.stats)
	eng.GaugeFunc("mappings", func() int64 { return int64(h.Engine.Mappings()) })

	// The physical port is one switch port: frames from the wire enter
	// the switch through it; frames the switch sends out it reach the
	// wire.
	uplink := h.Switch.AddPort(netsim.PortFunc(func(f []byte) { h.NIC.Send(f) }))
	h.NIC.SetHandler(uplink.Deliver)
	return h
}

// registerPairMetrics publishes one VM↔NSM channel's ring occupancy,
// push/pop accounting, and huge-page pool state under
// "vm<id>.r<replica>.".
func (h *Host) registerPairMetrics(vmID uint32, replica int, pair *nkchan.Pair) {
	scope := h.Metrics.Scope(fmt.Sprintf("vm%d.r%d.", vmID, replica))
	pair.EnsureShards()
	for si := range pair.Shards {
		rings := &pair.Shards[si]
		// A single-shard channel keeps the original flat names; a
		// sharded one infixes "s<i>." so every shard's rings are
		// individually observable (vm1.r0.s2.q.vm_job.depth).
		shardScope := scope
		if len(pair.Shards) > 1 {
			shardScope = scope.Child(fmt.Sprintf("s%d", si))
		}
		queues := []struct {
			name string
			q    *nkqueue.Queue
		}{
			{"vm_job", rings.VMJob}, {"vm_completion", rings.VMCompletion}, {"vm_receive", rings.VMReceive},
			{"nsm_job", rings.NSMJob}, {"nsm_completion", rings.NSMCompletion}, {"nsm_receive", rings.NSMReceive},
		}
		for _, ent := range queues {
			q := ent.q
			qs := shardScope.Child("q." + ent.name + ".")
			qs.GaugeFunc("depth", func() int64 { return int64(q.Len()) })
			qs.GaugeFunc("pushed", func() int64 { return int64(q.Pushed()) })
			qs.GaugeFunc("popped", func() int64 { return int64(q.Popped()) })
		}
	}
	pages := pair.Pages
	ps := scope.Child("pages.")
	ps.GaugeFunc("live_refs", func() int64 { return int64(pages.LiveRefs()) })
	ps.GaugeFunc("free_chunks", func() int64 { return int64(pages.FreeCount()) })
}

// Snapshot captures every metric registered on the host.
func (h *Host) Snapshot() telemetry.Snapshot { return h.Metrics.Snapshot() }

// Name returns the host's label.
func (h *Host) Name() string { return h.cfg.Name }

// Clock returns the host's clock.
func (h *Host) Clock() sim.Clock { return h.clock }

func (h *Host) newMAC() netsim.MAC {
	h.macSeq++
	return netsim.MAC{0x02, h.cfg.HostID, 0, 0, byte(h.macSeq >> 8), byte(h.macSeq)}
}

// VMMode selects the Figure 1 architecture for a tenant VM.
type VMMode int

// Modes.
const (
	// ModeLegacy is Figure 1a: the network stack inside the guest.
	ModeLegacy VMMode = iota
	// ModeNetKernel is Figure 1b: network stack as a service.
	ModeNetKernel
)

func (m VMMode) String() string {
	if m == ModeNetKernel {
		return "netkernel"
	}
	return "legacy"
}

// NSMSpec requests a Network Stack Module for a VM.
type NSMSpec struct {
	// Form selects the realization (VM / unikernel / container /
	// module).
	Form NSMForm
	// CC names the stack the module hosts ("cubic", "bbr", …); this is
	// the NSM's identity. Default "cubic".
	CC string
	// Cores scales the module up (§2.1 "dynamically scale up the
	// network stack module with more dedicated cores"); 0 uses the
	// form default.
	Cores int
	// ShareWith multiplexes this VM onto an existing NSM instead of
	// booting a new one (§2.1 "exploit the multiplexing gains by
	// serving multiple tenant VMs with the same network stack module").
	ShareWith *NSM
	// Replicas scales the tenant out across several NSM instances
	// (§2.1 "scale out with more modules to support higher throughput
	// to a large number of concurrent connections"): sockets are
	// spread round-robin across the replicas. Each replica gets its
	// own network identity (the VM's IP with the last octet offset by
	// the replica index). 0 and 1 both mean a single module.
	Replicas int
	// RateLimitBps caps this tenant's egress through the module in
	// bits per second — the throughput-SLA knob of §2.1. Zero means
	// unlimited.
	RateLimitBps float64
}

// VMConfig requests a tenant VM.
type VMConfig struct {
	Name    string
	Profile guestlib.GuestProfile
	IP      ipv4.Addr
	Mode    VMMode
	// NSM configures the module for ModeNetKernel.
	NSM NSMSpec
	// SendCredit overrides GuestLib's shm send window.
	SendCredit int
}

// VM is one tenant virtual machine.
type VM struct {
	ID      uint32
	Name    string
	Profile guestlib.GuestProfile
	IP      ipv4.Addr
	Mode    VMMode

	// Sockets is the socket API the VM's applications call, in either
	// mode: Guest in NetKernel mode, an adapter over Legacy otherwise.
	Sockets Sockets
	// Guest is the NetKernel-mode socket surface (nil in legacy mode).
	Guest *guestlib.GuestLib
	// Service is this VM's ServiceLib pump inside its (first) NSM (nil
	// in legacy mode); per-tenant accounting reads its counters.
	Service *servicelib.ServiceLib
	// Services lists one pump per NSM replica (scale-out); length 1
	// normally.
	Services []*servicelib.ServiceLib
	// NSMs lists the attached replicas; NSM is NSMs[0].
	NSMs []*NSM
	// Legacy is the in-guest stack (nil in NetKernel mode).
	Legacy *stack.Stack
	// NSM is the attached module (nil in legacy mode).
	NSM *NSM

	host *Host
}

// NSM is one Network Stack Module instance.
type NSM struct {
	ID      uint32
	Form    NSMForm
	Profile FormProfile
	CC      string
	Stack   *stack.Stack
	// CPU is the module's core reservation (the host CPU for
	// FormModule).
	CPU *netsim.CPU
	// ReadyAt is when the module finishes booting.
	ReadyAt sim.Time
	// Services are the per-VM ServiceLib pumps (one per multiplexed
	// VM).
	Services []*servicelib.ServiceLib
	// Restarts counts crash-reboot cycles.
	Restarts int

	// state is where the module is in its lifecycle, and migration the
	// migration it is the donor of while migrating.
	state     nsmState
	migration *Migration
	// ident is the network identity the module serves; a migration's
	// successor gets the donor's at cutover.
	ident *identity

	host *Host
}

// Tenants returns how many VMs the module serves.
func (n *NSM) Tenants() int { return len(n.Services) }

func (h *Host) stackConfig(name, cc string, cpu *netsim.CPU, rxShards int, metrics *telemetry.Scope) stack.Config {
	return stack.Config{
		RxShards:      rxShards,
		Clock:         h.clock,
		RNG:           sim.NewRNG(h.rng.Uint64()),
		Name:          name,
		CPU:           cpu,
		PerPacketCost: h.cfg.PerPacketCost,
		DefaultCC:     cc,
		MinRTO:        h.cfg.MinRTO,
		MSL:           h.cfg.MSL,
		SendBufSize:   h.cfg.SendBufSize,
		RecvBufSize:   h.cfg.RecvBufSize,
		Metrics:       metrics,
	}
}

// identity is a network identity on the host's fabric — a MAC, an IP and
// a switch port — and the stack serving it now: frames arriving on the
// port deliver there. A module keeps its identity across reboots, and a
// migration's cutover hands it to the successor.
type identity struct {
	mac     ethernet.MAC
	ip      ipv4.Addr
	port    *vswitch.Port
	serving *stack.Stack
}

// newIdentity allocates a MAC and a switch port for ip.
func (h *Host) newIdentity(ip ipv4.Addr) *identity {
	id := &identity{mac: ethernet.MAC(h.newMAC()), ip: ip}
	id.port = h.Switch.AddPort(netsim.PortFunc(func(f []byte) { id.serving.DeliverFrame(f) }))
	return id
}

// serve makes s the stack serving the identity: s takes its addresses,
// and frames arriving on it deliver to s.
func (id *identity) serve(s *stack.Stack) {
	id.serving = s
	s.AttachInterface(id.mac, id.ip, ethernet.MTU, maskBits, ipv4.Addr{}, id.port.Deliver)
}

// BootNSM provisions a Network Stack Module (normally done implicitly
// by CreateVM; exposed for scale-out scenarios). ip is the module's
// network identity.
func (h *Host) BootNSM(spec NSMSpec, ip ipv4.Addr) *NSM {
	n := h.bootDetachedNSM(spec)
	n.ident = h.newIdentity(ip)
	n.ident.serve(n.Stack)
	return n
}

// bootDetachedNSM provisions a module without a network identity: the
// migration path boots the successor this way and hands it the donor's
// identity at cutover.
func (h *Host) bootDetachedNSM(spec NSMSpec) *NSM {
	if spec.CC == "" {
		spec.CC = "cubic"
	}
	h.nextNSMID++
	prof := spec.Form.Profile()
	cores := spec.Cores
	if cores <= 0 {
		cores = prof.DedicatedCores
	}
	cpu := h.CPU // FormModule shares hypervisor cores
	if cores > 0 {
		cpu = netsim.NewCPU(h.clock, cores)
	}
	n := &NSM{
		ID:      h.nextNSMID,
		Form:    spec.Form,
		Profile: prof,
		CC:      spec.CC,
		CPU:     cpu,
		ReadyAt: h.clock.Now().Add(prof.BootTime),
		host:    h,
	}
	n.Stack = h.nsmStack(n)
	h.nsms = append(h.nsms, n)
	return n
}

// nsmStack builds a stack for module n. NSM stacks shard their
// connection tables to match the channel shard count (Shards <= 0 stays
// the legacy single-table stack).
func (h *Host) nsmStack(n *NSM) *stack.Stack {
	return stack.New(h.stackConfig(fmt.Sprintf("%s/nsm%d-%s", h.cfg.Name, n.ID, n.CC), n.CC, n.CPU,
		h.cfg.Shards, h.Metrics.Scope(fmt.Sprintf("nsm%d.stack.", n.ID))))
}

// CreateVM provisions a tenant VM. In NetKernel mode the CoreEngine
// boots (or attaches) the NSM and wires the shared-memory channel, as
// §3.1 describes ("A NetKernel CoreEngine runs on the hypervisor and
// is responsible for setting up the NSM when a VM boots").
func (h *Host) CreateVM(cfg VMConfig) (*VM, error) {
	if cfg.IP.IsZero() {
		return nil, fmt.Errorf("hypervisor: VM %q needs an IP", cfg.Name)
	}
	if cfg.Profile == "" {
		cfg.Profile = guestlib.ProfileLinux
	}
	h.nextVMID++
	vm := &VM{
		ID: h.nextVMID, Name: cfg.Name, Profile: cfg.Profile,
		IP: cfg.IP, Mode: cfg.Mode, host: h,
	}

	switch cfg.Mode {
	case ModeLegacy:
		// Figure 1a/2a: the guest kernel's own stack, vNIC into the
		// overlay switch. Its congestion control is whatever the guest
		// OS ships (CUBIC on Linux, C-TCP on Windows, …).
		vm.Legacy = stack.New(h.stackConfig(
			fmt.Sprintf("%s/vm%d-%s", h.cfg.Name, vm.ID, cfg.Name),
			cfg.Profile.DefaultCC(), h.CPU, 0, /* guests keep the legacy single-table stack */
			h.Metrics.Scope(fmt.Sprintf("vm%d.stack.", vm.ID))))
		h.newIdentity(cfg.IP).serve(vm.Legacy)
		vm.Sockets = &legacySockets{stack: vm.Legacy, socks: map[int32]*legacySock{}}

	case ModeNetKernel:
		replicas := cfg.NSM.Replicas
		if replicas < 1 {
			replicas = 1
		}
		if cfg.NSM.ShareWith != nil {
			replicas = 1
		}
		credit := cfg.SendCredit
		if credit <= 0 {
			credit = h.cfg.ShmWindow
		}
		var pairs []*nkchan.Pair
		for r := 0; r < replicas; r++ {
			nsm := cfg.NSM.ShareWith
			if nsm == nil {
				ip := cfg.IP
				ip[3] += byte(r) // per-replica network identity
				nsm = h.BootNSM(cfg.NSM, ip)
			}
			if vm.NSM == nil {
				vm.NSM = nsm
			}
			vm.NSMs = append(vm.NSMs, nsm)

			pair, err := nkchan.NewPair(h.cfg.Chan, h.HugePages)
			if err != nil {
				return nil, fmt.Errorf("hypervisor: %w", err)
			}
			var shaper sched.Shaper
			if cfg.NSM.RateLimitBps > 0 {
				shaper = sched.NewTokenBucket(h.clock, cfg.NSM.RateLimitBps/8, 0)
			}
			svc := servicelib.New(servicelib.Config{
				Clock:      h.clock,
				NSMID:      nsm.ID,
				Pair:       pair,
				Stack:      nsm.Stack,
				CC:         nsm.CC,
				Shaper:     shaper,
				RecvWindow: h.cfg.ShmWindow,
				Metrics:    h.Metrics.Scope(fmt.Sprintf("vm%d.r%d.svc.", vm.ID, r)),
				Tracer:     h.Tracer,
			})
			h.registerPairMetrics(vm.ID, r, pair)
			nsm.Services = append(nsm.Services, svc)
			if vm.Service == nil {
				vm.Service = svc
			}
			vm.Services = append(vm.Services, svc)
			h.Engine.Attach(pair, vm.ID, nsm.ID, nsm.Profile.NotifyLatency, nsm.ReadyAt,
				int32(1+r)<<20)
			pairs = append(pairs, pair)
		}
		vm.Guest = guestlib.New(guestlib.Config{
			Clock:      h.clock,
			VMID:       vm.ID,
			Pairs:      pairs,
			SendCredit: credit,
			Metrics:    h.Metrics.Scope(fmt.Sprintf("vm%d.guest.", vm.ID)),
			Tracer:     h.Tracer,
		})
		vm.Sockets = vm.Guest

	default:
		return nil, fmt.Errorf("hypervisor: unknown VM mode %d", cfg.Mode)
	}

	h.vms[vm.ID] = vm
	return vm, nil
}

// VMs returns the host's VM count.
func (h *Host) VMs() int { return len(h.vms) }

// NSMs returns the host's NSM count.
func (h *Host) NSMs() int { return len(h.nsms) }

// EachNSM visits every NSM in ascending ID order.
func (h *Host) EachNSM(fn func(*NSM)) {
	for _, n := range h.nsms {
		fn(n)
	}
}

// removeNSM drops n from the host's modules, keeping their order.
func (h *Host) removeNSM(n *NSM) {
	h.nsms = slices.DeleteFunc(h.nsms, func(m *NSM) bool { return m == n })
}

// CopyReport aggregates the data-path memcpy counters across one VM's
// layers: the socket-API boundary (GuestLib), the NSM-side pump
// (ServiceLib), and the TCP stack itself. Payload counters give the
// copies-per-byte denominator. Note that when an NSM is multiplexed
// across VMs its stack counters cover all tenants; the copy-budget
// experiments use one VM per NSM so the attribution is exact.
type CopyReport struct {
	// PayloadTx / PayloadRx are payload bytes the guest application
	// pushed into / pulled out of the socket API.
	PayloadTx, PayloadRx uint64
	// Send-direction copied bytes, by the layer whose code ran the
	// memcpy.
	GuestTxCopied, ServiceTxCopied, TCPTxCopied uint64
	// Receive-direction copied bytes.
	GuestRxCopied, ServiceRxCopied, TCPRxCopied uint64
	// FrameTxCopied is the ledger's last leg, below TCP: payload bytes
	// the stack copied into frame buffers on their way to the wire,
	// retransmissions included (stack.Stats.FrameCopiedTx). It is
	// reported beside TxCopied rather than inside it, so the committed
	// copies-per-byte trajectory keeps its meaning; the receive path
	// below TCP copies nothing.
	FrameTxCopied uint64
}

// TxCopied sums send-direction copies across layers.
func (r CopyReport) TxCopied() uint64 { return r.GuestTxCopied + r.ServiceTxCopied + r.TCPTxCopied }

// RxCopied sums receive-direction copies across layers.
func (r CopyReport) RxCopied() uint64 { return r.GuestRxCopied + r.ServiceRxCopied + r.TCPRxCopied }

// TxCopiesPerByte is send-direction copies per payload byte.
func (r CopyReport) TxCopiesPerByte() float64 {
	if r.PayloadTx == 0 {
		return 0
	}
	return float64(r.TxCopied()) / float64(r.PayloadTx)
}

// RxCopiesPerByte is receive-direction copies per payload byte.
func (r CopyReport) RxCopiesPerByte() float64 {
	if r.PayloadRx == 0 {
		return 0
	}
	return float64(r.RxCopied()) / float64(r.PayloadRx)
}

// Sub returns the counter deltas since a prior snapshot (all fields
// are cumulative).
func (r CopyReport) Sub(prev CopyReport) CopyReport {
	return CopyReport{
		PayloadTx:       r.PayloadTx - prev.PayloadTx,
		PayloadRx:       r.PayloadRx - prev.PayloadRx,
		GuestTxCopied:   r.GuestTxCopied - prev.GuestTxCopied,
		ServiceTxCopied: r.ServiceTxCopied - prev.ServiceTxCopied,
		TCPTxCopied:     r.TCPTxCopied - prev.TCPTxCopied,
		GuestRxCopied:   r.GuestRxCopied - prev.GuestRxCopied,
		ServiceRxCopied: r.ServiceRxCopied - prev.ServiceRxCopied,
		TCPRxCopied:     r.TCPRxCopied - prev.TCPRxCopied,
		FrameTxCopied:   r.FrameTxCopied - prev.FrameTxCopied,
	}
}

// CopyReport snapshots the VM's cumulative copy counters. Legacy VMs
// report only the in-guest stack's TCP copies (the socket API there is
// the stack's own Read/Write, already counted by the TCP layer).
func (vm *VM) CopyReport() CopyReport {
	var r CopyReport
	if vm.Guest != nil {
		gs := vm.Guest.Stats()
		r.PayloadTx = uint64(gs.BytesSent)
		r.PayloadRx = uint64(gs.BytesReceived)
		r.GuestTxCopied = uint64(gs.TxBytesCopied)
		r.GuestRxCopied = uint64(gs.RxBytesCopied)
	}
	for _, svc := range vm.Services {
		ss := svc.Stats()
		r.ServiceTxCopied += uint64(ss.TxBytesCopied)
		r.ServiceRxCopied += uint64(ss.RxBytesCopied)
	}
	addStack := func(st stack.Stats) {
		r.TCPTxCopied += uint64(st.TCPCopiedTx)
		r.TCPRxCopied += uint64(st.TCPCopiedRx)
		r.FrameTxCopied += uint64(st.FrameCopiedTx)
	}
	for _, n := range vm.NSMs {
		addStack(n.Stack.Stats())
	}
	if vm.Legacy != nil {
		addStack(vm.Legacy.Stats())
	}
	return r
}

// Snapshot captures this VM's slice of the host registry: its GuestLib
// counters, per-replica ServiceLib and channel metrics, and each
// attached NSM's stack (which also serves any co-tenants sharing the
// module).
func (vm *VM) Snapshot() telemetry.Snapshot {
	prefixes := []string{fmt.Sprintf("vm%d.", vm.ID)}
	for _, n := range vm.NSMs {
		prefixes = append(prefixes, fmt.Sprintf("nsm%d.", n.ID))
	}
	return vm.host.Metrics.Snapshot().Filter(prefixes...)
}
