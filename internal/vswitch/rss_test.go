package vswitch

import (
	"encoding/binary"
	"testing"

	"netkernel/internal/proto/ipv4"
)

// A TCP frame steers to the shard its tuple's connection lives on, and
// its reply with it; anything else steers to shard 0.
func TestFrameShard(t *testing.T) {
	a, b := ipv4.Addr{10, 0, 1, 1}, ipv4.Addr{10, 0, 2, 1}
	frame := func(src ipv4.Addr, sp uint16, dst ipv4.Addr, dp uint16) []byte {
		f := make([]byte, 14+20+20) // Ethernet, IPv4 and TCP ports
		f[12], f[14], f[23] = 0x08, 0x45, ipv4.ProtoTCP
		copy(f[26:30], src[:])
		copy(f[30:34], dst[:])
		binary.BigEndian.PutUint16(f[34:], sp)
		binary.BigEndian.PutUint16(f[36:], dp)
		return f
	}
	var off []byte // a TCP frame steered off shard 0
	for port := uint16(40000); port < 40016; port++ {
		want := ShardOf(TupleHash(a, port, b, 7777), 4)
		if got := FrameShard(frame(a, port, b, 7777), 4); got != want {
			t.Errorf("port %d: frame on shard %d, its tuple on %d", port, got, want)
		}
		if got := FrameShard(frame(b, 7777, a, port), 4); got != want {
			t.Errorf("port %d: reply on shard %d, request on %d", port, got, want)
		}
		if want != 0 {
			off = frame(a, port, b, 7777)
		}
	}
	if off == nil {
		t.Fatal("16 flows all steered to shard 0")
	}
	// with is off with the bytes v written at i.
	with := func(i int, v ...byte) []byte {
		f := append([]byte{}, off...)
		copy(f[i:], v)
		return f
	}
	if got := FrameShard(off, 1); got != 0 {
		t.Errorf("one shard: frame on shard %d", got)
	}
	for name, f := range map[string][]byte{
		"arp": with(12, 0x08, 0x06), "ipv6": with(12, 0x86, 0xdd), "udp": with(23, 17), "runt": off[:33],
	} {
		if got := FrameShard(f, 4); got != 0 {
			t.Errorf("%s: shard %d, want 0", name, got)
		}
	}
}
