package vswitch

import (
	"testing"

	"netkernel/internal/framepool"
	"netkernel/internal/netsim"
)

func poolFrameFromTo(src, dst netsim.MAC) []byte {
	f := framepool.Get(64)
	for i := range f {
		f[i] = byte(i)
	}
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	return f
}

// The switch releases every frame it does not pass on — runts, hairpins,
// and the original of a flood, whose copies come from the pool — so a
// port that releases what it is handed leaves nothing out.
func TestFramesSwitchDropsAndFloodRelease(t *testing.T) {
	framepool.Poison(true)
	defer framepool.Poison(false)
	loop, sw, sinks, ports := build()
	live := framepool.Live()

	ports[0].Deliver(poolFrameFromTo(macA, macB)) // unknown: flooded to 1 and 2
	loop.Run()                                    // before B is learned below
	ports[0].Deliver(framepool.Get(5))            // runt
	ports[0].Deliver(poolFrameFromTo(macC, macA)) // hairpin: A lives on port 0
	ports[1].Deliver(poolFrameFromTo(macB, macA)) // learned: forwarded as is
	loop.Run()

	if st := sw.Stats(); st.Flooded != 1 || st.Dropped != 2 || st.Forwarded != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(sinks[1].frames) != 1 || len(sinks[2].frames) != 1 || len(sinks[0].frames) != 1 {
		t.Fatalf("deliveries %d/%d/%d", len(sinks[0].frames), len(sinks[1].frames), len(sinks[2].frames))
	}
	a, b := sinks[1].frames[0], sinks[2].frames[0]
	if cap(a) != framepool.Cap || cap(b) != framepool.Cap || &a[0] == &b[0] {
		t.Fatalf("flood copies are not two pool frames")
	}
	if a[20] != 20 || b[63] != 63 {
		t.Fatalf("flood copy lost the frame's bytes")
	}
	if n := framepool.Live() - live; n != 3 {
		t.Fatalf("%d frames out, want the 3 the sinks hold", n)
	}
	for _, s := range sinks {
		for _, f := range s.frames {
			framepool.Put(f)
		}
	}
}

// A flood costs no allocation either: its copies cycle through the pool.
func TestAllocsFlood(t *testing.T) {
	loop, _, sinks, ports := build()
	flood := func() {
		ports[0].Deliver(poolFrameFromTo(macA, netsim.Broadcast))
		loop.Run()
		for _, s := range sinks {
			for _, f := range s.frames {
				framepool.Put(f)
			}
			s.frames = s.frames[:0]
		}
	}
	flood()
	if n := testing.AllocsPerRun(100, flood); n != 0 {
		t.Errorf("%v allocs per flooded frame, want 0", n)
	}
}
