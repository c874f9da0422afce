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

// dstMAC extracts the destination address from a frame.
func dstMAC(frame []byte) MAC {
	var m MAC
	copy(m[:], frame)
	return m
}

// A NIC models a physical NIC with SR-IOV support: a physical function
// (the host / vSwitch side) plus virtual functions handed to NSMs, as in
// the prototype ("one virtual function (VF) of an Intel X710 40Gbps NIC
// with SR-IOV", §4.1). Inbound frames are demultiplexed by destination
// MAC: a VF's traffic bypasses the host entirely, which is the SR-IOV
// host-bypass path of Figure 2.
type NIC struct {
	clock   sim.Clock
	mac     MAC
	wire    Port
	handler func(frame []byte)
	vfs     []*VF
}

// NewNIC builds a NIC with the given physical-function MAC.
func NewNIC(clock sim.Clock, mac MAC) *NIC {
	return &NIC{clock: clock, mac: mac}
}

// MAC returns the physical-function address.
func (n *NIC) MAC() MAC { return n.mac }

// AttachWire connects the NIC's transmitter to the fabric (usually a
// Link).
func (n *NIC) AttachWire(p Port) { n.wire = p }

// SetHandler installs the physical-function receive handler.
func (n *NIC) SetHandler(h func(frame []byte)) { n.handler = h }

// Send transmits a frame from the physical function. With no wire
// attached the frame is dropped.
func (n *NIC) Send(frame []byte) {
	if n.wire == nil {
		framepool.Put(frame)
		return
	}
	n.wire.Deliver(frame)
}

// Deliver implements Port: inbound traffic from the wire. Broadcasts go
// to the physical function and every VF (each gets its own copy); unicast
// goes to the owning function only, falling back to the physical function
// for unknown destinations (promiscuous vSwitch behaviour). A function
// with no handler installed drops what it is sent.
func (n *NIC) Deliver(frame []byte) {
	dst := dstMAC(frame)
	if dst.IsBroadcast() {
		for _, vf := range n.vfs {
			if vf.handler != nil {
				vf.handler(framepool.Clone(frame))
			}
		}
		deliverOrDrop(n.handler, frame)
		return
	}
	for _, vf := range n.vfs {
		if vf.mac == dst {
			deliverOrDrop(vf.handler, frame)
			return
		}
	}
	deliverOrDrop(n.handler, frame)
}

func deliverOrDrop(handler func(frame []byte), frame []byte) {
	if handler == nil {
		framepool.Put(frame)
		return
	}
	handler(frame)
}

// AddVF carves a virtual function with its own MAC out of the NIC.
func (n *NIC) AddVF(mac MAC) *VF {
	vf := &VF{nic: n, mac: mac}
	n.vfs = append(n.vfs, vf)
	return vf
}

// VFs returns the NIC's virtual functions.
func (n *NIC) VFs() []*VF { return n.vfs }

// A VF is an SR-IOV virtual function: an independent send/receive
// endpoint sharing the physical port.
type VF struct {
	nic     *NIC
	mac     MAC
	handler func(frame []byte)
}

// MAC returns the VF's address.
func (v *VF) MAC() MAC { return v.mac }

// SetHandler installs the VF receive handler.
func (v *VF) SetHandler(h func(frame []byte)) { v.handler = h }

// Send transmits a frame through the shared physical port.
func (v *VF) Send(frame []byte) { v.nic.Send(frame) }
