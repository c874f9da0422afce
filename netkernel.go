// Package netkernel is a library-scale reproduction of "Network Stack
// as a Service in the Cloud" (Niu et al., HotNets 2017): a framework
// that decouples the tenant network stack from the guest OS and runs
// it provider-side in Network Stack Modules (NSMs), connected to the
// guest by shared-memory queues managed by a CoreEngine.
//
// The package is a facade over the full system in internal/: a
// deterministic discrete-event substrate, a from-scratch TCP/IP stack
// with pluggable congestion control (Reno, CUBIC, BBR, C-TCP, DCTCP),
// simulated hosts with NICs and virtual switches, the NetKernel
// datapath (GuestLib, nqe queues, huge pages, CoreEngine, ServiceLib),
// and the management plane (QoS scheduling, SLA tracking, usage
// metering and pricing).
//
// A minimal session:
//
//	c := netkernel.NewCluster(netkernel.ClusterConfig{})
//	h1 := c.AddHost("host1")
//	h2 := c.AddHost("host2")
//	c.ConnectHosts(h1, h2, netkernel.Testbed40G())
//
//	server, _ := h2.CreateVM(netkernel.VMConfig{
//		Name: "server", IP: netkernel.IP("10.0.2.1"), Mode: netkernel.ModeNetKernel,
//		NSM: netkernel.NSMSpec{Form: netkernel.FormVM, CC: "bbr"},
//	})
//	client, _ := h1.CreateVM(netkernel.VMConfig{
//		Name: "client", IP: netkernel.IP("10.0.1.1"), Mode: netkernel.ModeNetKernel,
//		NSM: netkernel.NSMSpec{Form: netkernel.FormVM, CC: "cubic"},
//	})
//
//	// … use server.Sockets / client.Sockets (the socket API) and c.Run().
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory.
package netkernel

import (
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
)

// Re-exported types: the public surface keeps the internal package
// structure invisible while exposing the domain vocabulary.
type (
	// Host is one physical machine: NIC, overlay switch, CPU cores,
	// CoreEngine, VMs and NSMs.
	Host = hypervisor.Host
	// VM is a tenant virtual machine (legacy or NetKernel mode).
	VM = hypervisor.VM
	// VMConfig requests a tenant VM.
	VMConfig = hypervisor.VMConfig
	// NSM is a Network Stack Module instance.
	NSM = hypervisor.NSM
	// NSMSpec requests an NSM (form, congestion control, cores,
	// sharing, replicas, rate SLA).
	NSMSpec = hypervisor.NSMSpec
	// NSMForm selects the module realization (VM, unikernel, container,
	// hypervisor module).
	NSMForm = hypervisor.NSMForm
	// VMMode selects legacy (stack in guest) or NetKernel (stack as a
	// service).
	VMMode = hypervisor.VMMode
	// HostConfig parameterizes a host.
	HostConfig = hypervisor.HostConfig
	// GuestLib is the in-guest socket surface of a NetKernel VM.
	GuestLib = guestlib.GuestLib
	// Callbacks are the per-socket event hooks of the guest API.
	Callbacks = guestlib.Callbacks
	// GuestProfile names the guest OS flavor (its legacy stack's
	// default congestion control).
	GuestProfile = guestlib.GuestProfile
	// Sockets is a VM's socket API, the same calls in either mode.
	Sockets = hypervisor.Sockets
	// Conn is a TCP connection of a legacy in-guest stack.
	Conn = tcp.Conn
	// Stack is a host network stack (legacy guests and NSMs run one).
	Stack = stack.Stack
	// Addr is an IPv4 address.
	Addr = ipv4.Addr
	// LinkConfig shapes a physical link (rate, delay, loss, queue).
	LinkConfig = netsim.LinkConfig
	// Link is one unidirectional wire.
	Link = netsim.Link
)

// Re-exported constants.
const (
	ModeLegacy    = hypervisor.ModeLegacy
	ModeNetKernel = hypervisor.ModeNetKernel

	FormVM        = hypervisor.FormVM
	FormUnikernel = hypervisor.FormUnikernel
	FormContainer = hypervisor.FormContainer
	FormModule    = hypervisor.FormModule

	ProfileLinux   = guestlib.ProfileLinux
	ProfileWindows = guestlib.ProfileWindows
	ProfileFreeBSD = guestlib.ProfileFreeBSD

	// Link capacities.
	Kbps = netsim.Kbps
	Mbps = netsim.Mbps
	Gbps = netsim.Gbps
)

// IP parses dotted-quad notation, panicking on malformed input (it is
// meant for literals).
func IP(s string) Addr { return ipv4.MustParseAddr(s) }

// Testbed40G is the paper's two-server 40 GbE fabric (§4.1).
func Testbed40G() LinkConfig { return netsim.Testbed40G() }

// WANPath is the §4.3 Beijing↔California path: 12 Mbit/s, 350 ms RTT,
// with the given random loss probability.
func WANPath(lossProb float64) LinkConfig { return netsim.WANPath(lossProb) }

// MarkCE is a LinkConfig.Marker that sets the ECN congestion-
// experienced codepoint on an Ethernet frame's IPv4 packet (a no-op
// for non-ECT traffic): the switch-side half of DCTCP.
func MarkCE(frame []byte) {
	if len(frame) > ethernet.HeaderLen {
		ipv4.SetCEInPlace(frame[ethernet.HeaderLen:])
	}
}

// ClusterConfig shapes a cluster.
type ClusterConfig struct {
	// Seed drives all deterministic randomness (default 1).
	Seed uint64
	// Cores per host (default 8).
	Cores int
	// PerPacketCost models per-core packet processing (0 = free).
	PerPacketCost time.Duration
	// Host, when set, adjusts each host's config before construction
	// (buffers, engine latencies, …).
	Host func(cfg *HostConfig)
}

// Cluster is a deterministic simulated deployment: hosts, wires, and a
// virtual clock. Its hosts share one huge-page pool.
type Cluster struct {
	cfg    ClusterConfig
	loop   *sim.Loop
	pages  *shm.Pool
	nextID uint8
}

// NewCluster builds an empty cluster at virtual time zero.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Cluster{cfg: cfg, loop: sim.NewLoop(), pages: shm.NewPool()}
}

// AddHost provisions a host.
func (c *Cluster) AddHost(name string) *Host {
	c.nextID++
	hc := HostConfig{
		Name:          name,
		Clock:         c.loop,
		RNG:           sim.NewRNG(c.cfg.Seed + uint64(c.nextID)),
		HostID:        c.nextID,
		Cores:         c.cfg.Cores,
		PerPacketCost: c.cfg.PerPacketCost,
		HugePages:     c.pages,
	}
	if c.cfg.Host != nil {
		c.cfg.Host(&hc)
	}
	return hypervisor.NewHost(hc)
}

// ConnectHosts joins two hosts' physical NICs with a duplex link and
// returns both directions (a→b, b→a).
func (c *Cluster) ConnectHosts(a, b *Host, link LinkConfig) (ab, ba *Link) {
	rng := sim.NewRNG(c.cfg.Seed + 0x1147)
	ab, ba = netsim.Duplex(c.loop, rng, link, a.NIC, b.NIC)
	a.NIC.AttachWire(ab)
	b.NIC.AttachWire(ba)
	return ab, ba
}

// Run advances virtual time by d, executing everything scheduled
// within it.
func (c *Cluster) Run(d time.Duration) { c.loop.RunFor(d) }

// Now returns the current virtual time since cluster creation.
func (c *Cluster) Now() time.Duration { return c.loop.Now().Duration() }

// Clock exposes the cluster's clock for advanced wiring (management
// probes, meters, custom timers).
func (c *Cluster) Clock() sim.Clock { return c.loop }
