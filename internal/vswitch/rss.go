package vswitch

// RSS-style flow steering shared by every sharded layer of the
// datapath. The journal version of the paper multiplexes many VMs onto
// multi-queue NSMs; the queue a flow lands on must be a pure function
// of the flow so that every segment — and every nqe derived from it —
// stays on one shard for the connection's lifetime. The canonical
// 4-tuple hash lives here (the vswitch is the one layer both the
// stack and the hypervisor already depend on) and is direction
// independent: the two endpoints are ordered before hashing, so a
// flow's TX and RX frames steer to the same shard.

import "netkernel/internal/proto/ipv4"

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// TupleHash hashes a TCP 4-tuple direction-independently (FNV-1a
// over the canonically ordered endpoints). Both ends of a connection,
// and both directions of its traffic, produce the same value.
func TupleHash(aIP ipv4.Addr, aPort uint16, bIP ipv4.Addr, bPort uint16) uint32 {
	if endpointLess(bIP, bPort, aIP, aPort) {
		aIP, bIP = bIP, aIP
		aPort, bPort = bPort, aPort
	}
	h := uint32(fnvOffset32)
	h = fnvBytes(h, aIP[:])
	h = fnvPort(h, aPort)
	h = fnvBytes(h, bIP[:])
	h = fnvPort(h, bPort)
	return h
}

// ShardOf folds a flow hash onto one of n shards. FNV-1a's low bits
// stay correlated for correlated inputs — paired port allocators
// handing out sequential (src, dst) ports can land every flow on one
// shard when folded mod a small n — so the hash is avalanched
// (murmur3's 32-bit finalizer) before the fold.
func ShardOf(hash uint32, n int) int {
	if n <= 1 {
		return 0
	}
	hash ^= hash >> 16
	hash *= 0x85ebca6b
	hash ^= hash >> 13
	hash *= 0xc2b2ae35
	hash ^= hash >> 16
	return int(hash % uint32(n))
}

// FrameShard steers an Ethernet frame to a shard by its TCP 4-tuple.
// Everything else (ARP, a runt, a non-TCP packet, which the stack drops)
// falls back to shard 0: such traffic is rare and needs no spreading.
// Because the endpoint ordering is canonical, a frame and its reply
// land on the same shard.
func FrameShard(frame []byte, n int) int {
	if n <= 1 {
		return 0
	}
	// Ethernet: ethertype at 12..14. IPv4 header follows at 14.
	if len(frame) < 34 || frame[12] != 0x08 || frame[13] != 0x00 {
		return 0
	}
	ihl := int(frame[14]&0x0f) * 4
	if ihl < 20 || len(frame) < 14+ihl {
		return 0
	}
	transport := 14 + ihl
	if frame[23] != ipv4.ProtoTCP || len(frame) < transport+4 {
		return 0
	}
	var src, dst ipv4.Addr
	copy(src[:], frame[26:30])
	copy(dst[:], frame[30:34])
	sp := uint16(frame[transport])<<8 | uint16(frame[transport+1])
	dp := uint16(frame[transport+2])<<8 | uint16(frame[transport+3])
	return ShardOf(TupleHash(src, sp, dst, dp), n)
}

func endpointLess(aIP ipv4.Addr, aPort uint16, bIP ipv4.Addr, bPort uint16) bool {
	for i := range aIP {
		if aIP[i] != bIP[i] {
			return aIP[i] < bIP[i]
		}
	}
	return aPort < bPort
}

func fnvBytes(h uint32, b []byte) uint32 {
	for _, c := range b {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	return h
}

func fnvPort(h uint32, p uint16) uint32 {
	h = (h ^ uint32(p>>8)) * fnvPrime32
	h = (h ^ uint32(p&0xff)) * fnvPrime32
	return h
}
