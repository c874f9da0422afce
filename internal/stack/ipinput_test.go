package stack

import (
	"bytes"
	"encoding/binary"
	"testing"

	"netkernel/internal/framepool"
	"netkernel/internal/proto/arp"
	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/inet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/sim"
)

// ipPacket marshals an IPv4 packet carrying l4.
func ipPacket(h ipv4.Header, l4 []byte) []byte {
	h.TotalLen = uint16(ipv4.HeaderLen + len(l4))
	b := make([]byte, h.TotalLen)
	h.Marshal(b)
	copy(b[ipv4.HeaderLen:], l4)
	return b
}

// ipFrame puts an IPv4 packet from ipB behind an Ethernet header
// addressed to macA, in a pool frame.
func ipFrame(pkt []byte) []byte {
	f := framepool.Get(ethernet.HeaderLen + len(pkt))
	eh := ethernet.Header{Dst: macA, Src: macB, Type: ethernet.TypeIPv4}
	eh.Marshal(f)
	copy(f[ethernet.HeaderLen:], pkt)
	return f
}

// echoRequest is an ICMP echo request (type 8, id 1, seq 1) carrying
// "ping", checksum included: a protocol the stack does not speak.
var echoRequest = []byte{0x8, 0x0, 0x19, 0x2d, 0x0, 0x1, 0x0, 0x1, 'p', 'i', 'n', 'g'}

// A fragment is dropped and counted, never held: the stack neither
// fragments nor reassembles, so first fragments a peer never completes
// pile up no state, and the segment inside one reaches no transport. A
// packet of a protocol other than TCP — an ICMP echo request — is
// counted as dropped the same way, and never answered.
func TestFragmentsDroppedNotHoarded(t *testing.T) {
	s, sent := captureStack(t, 1500)
	syn := tcp.Header{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: tcp.FlagSYN, Window: 1000}
	seg := syn.Marshal(ipB, ipA, nil)
	live := framepool.Live()
	before := s.Stats().DroppedBadPacket
	for id := uint16(1); id <= 1000; id++ {
		h := ipv4.Header{ID: id, Flags: ipv4.FlagMoreFrags, TTL: 64, Proto: ipv4.ProtoTCP, Src: ipB, Dst: ipA}
		s.DeliverFrame(ipFrame(ipPacket(h, seg)))
	}
	last := ipv4.Header{ID: 1, FragOff: 185, TTL: 64, Proto: ipv4.ProtoTCP, Src: ipB, Dst: ipA}
	s.DeliverFrame(ipFrame(ipPacket(last, make([]byte, 64))))
	echo := ipv4.Header{ID: 2, TTL: 64, Proto: ipv4.ProtoICMP, Src: ipB, Dst: ipA}
	s.DeliverFrame(ipFrame(ipPacket(echo, echoRequest)))

	if n := s.Stats().DroppedBadPacket - before; n != 1001 {
		t.Errorf("dropped_bad_packet rose by %d, want 1001", n)
	}
	if n := s.Stats().DroppedNoSocket; n != 1 {
		t.Errorf("dropped_no_socket is %d after an ICMP echo request, want 1", n)
	}
	if n := framepool.Live() - live; n != 0 {
		t.Errorf("%d frames not released", n)
	}
	if len(*sent) != 0 || s.Stats().TCPSegsIn != 0 {
		t.Errorf("a fragment or the echo request was answered or reached TCP: %d frames answered, %d segments in", len(*sent), s.Stats().TCPSegsIn)
	}
}

// FuzzDeliverFrame hands an attached stack arbitrary bytes as received
// frames: raw, and as the IPv4 packet of a frame addressed to the stack,
// its header checksum fixed up so the bytes behind it reach the
// transports. Whatever arrives, nothing panics, no connection comes into
// being (nobody listens), and once the stack's timers have run out every
// frame it was handed or built is back in the pool. Bytes ipv4.Parse
// accepts parse to a payload inside the packet.
func FuzzDeliverFrame(f *testing.F) {
	syn := tcp.Header{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: tcp.FlagSYN, Window: 1000}
	h := ipv4.Header{ID: 1, TTL: 64, Proto: ipv4.ProtoTCP, Src: ipB, Dst: ipA}
	f.Add(ipPacket(h, syn.Marshal(ipB, ipA, nil)))
	frag := h
	frag.Flags = ipv4.FlagMoreFrags
	f.Add(ipPacket(frag, syn.Marshal(ipB, ipA, nil)))
	h.Proto = ipv4.ProtoICMP
	f.Add(ipPacket(h, echoRequest))
	req := make([]byte, ethernet.HeaderLen+arp.PacketLen)
	(&ethernet.Header{Dst: ethernet.Broadcast, Src: macB, Type: ethernet.TypeARP}).Marshal(req)
	(&arp.Packet{Op: arp.OpRequest, SenderMAC: macB, SenderIP: ipB, TargetIP: ipA}).Marshal(req[ethernet.HeaderLen:])
	f.Add(req)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x45}, 64))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Headers are what parses: 256 bytes hold the largest IPv4 and TCP
		// headers (60 B each) with payload to spare, and keep the fuzzer's
		// minimization of an interesting input quick.
		if len(raw) > 256 {
			raw = raw[:256]
		}
		if h, p, err := ipv4.Parse(raw); err == nil && (len(p) > len(raw)-ipv4.HeaderLen || int(h.TotalLen) > len(raw)) {
			t.Fatalf("Parse returned %d payload bytes of a %d-byte packet", len(p), len(raw))
		}
		loop := sim.NewLoop()
		s := New(Config{Clock: loop, RNG: sim.NewRNG(1), Name: "fuzz"})
		s.AttachInterface(macA, ipA, 1500, 24, ipv4.Addr{}, framepool.Put)
		live := framepool.Live()

		s.DeliverFrame(framepool.Clone(raw))
		frame := ipFrame(raw)
		if ip := frame[ethernet.HeaderLen:]; len(ip) >= ipv4.HeaderLen {
			if ihl := int(ip[0]&0xf) * 4; ihl >= ipv4.HeaderLen && ihl <= len(ip) {
				ip[10], ip[11] = 0, 0
				binary.BigEndian.PutUint16(ip[10:], inet.Checksum(ip[:ihl], 0))
			}
		}
		s.DeliverFrame(frame)
		loop.Run()

		if n := s.ConnCount(); n != 0 {
			t.Fatalf("%d connections created by received frames", n)
		}
		if n := framepool.Live() - live; n != 0 {
			t.Fatalf("%d frames not released", n)
		}
	})
}
