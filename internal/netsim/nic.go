package netsim

import (
	"fmt"

	"netkernel/internal/framepool"
	"netkernel/internal/sim"
)

// MAC is an Ethernet hardware address. netsim reads destination MACs
// directly from frame bytes (an Ethernet header always starts with the
// destination address) so it can demultiplex without importing the
// protocol packages.
type MAC [6]byte

// Broadcast is the all-ones MAC.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is broadcast or multicast.
func (m MAC) IsBroadcast() bool { return m[0]&1 == 1 }

// A NIC models a host's physical NIC: frames from the wire go to its
// handler (the host switch's uplink), and frames it sends go to the
// wire. The prototype's NIC also offers SR-IOV virtual functions (§4.1);
// no experiment used them, so they are not modelled.
type NIC struct {
	clock   sim.Clock
	mac     MAC
	wire    Port
	handler func(frame []byte)
}

// NewNIC builds a NIC with the given MAC.
func NewNIC(clock sim.Clock, mac MAC) *NIC {
	return &NIC{clock: clock, mac: mac}
}

// AttachWire connects the NIC's transmitter to the fabric (usually a
// Link).
func (n *NIC) AttachWire(p Port) { n.wire = p }

// SetHandler installs the receive handler.
func (n *NIC) SetHandler(h func(frame []byte)) { n.handler = h }

// Send transmits a frame. With no wire attached the frame is dropped.
func (n *NIC) Send(frame []byte) {
	if n.wire == nil {
		framepool.Put(frame)
		return
	}
	n.wire.Deliver(frame)
}

// Deliver implements Port: inbound traffic from the wire, handed to the
// handler whatever its destination (the host switch behind it is
// promiscuous). With no handler installed the frame is dropped.
func (n *NIC) Deliver(frame []byte) {
	if n.handler == nil {
		framepool.Put(frame)
		return
	}
	n.handler(frame)
}
