package chaostest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"netkernel/internal/netsim"
)

// The paper's transparency claim (§3) as a metamorphic test: GuestLib
// intercepts the socket API applications already call, so one program
// runs unchanged on the in-guest stack or on an NSM, however the module
// is deployed. The echo driver runs over vm.Sockets on a lossless link
// in five variants, and everything the application can see must agree:
// per connection and side, the bytes, the error class of each call and
// callback, the order of establish, EOF and close, and which callbacks
// reach an fd after its Close (DESIGN.md §11). Only timing may differ.

// transparencyLAN is a clean 1 Gbit/s LAN: no fault, so every variant
// must deliver every byte.
func transparencyLAN() Profile {
	link := netsim.LossyReorderLAN()
	link.Faults = netsim.FaultConfig{}
	return Profile{
		Name:     "transparency-lan",
		Link:     link,
		Conns:    8,
		MaxBody:  128 << 10,
		Spacing:  5 * time.Millisecond,
		Watchdog: 5 * time.Second,
		Run:      100 * time.Millisecond,
		Quiesce:  2 * time.Second,
	}
}

// transparencyVariant is one deployment the echo driver runs on.
type transparencyVariant struct {
	name           string
	legacy, shared bool
	edit           func(*Profile)
}

var transparencyVariants = []transparencyVariant{
	{name: "legacy", legacy: true},
	{name: "dedicated NSM"},
	{name: "shared NSM", shared: true},
	{name: "4-shard NSM", edit: func(p *Profile) { p.Shards = 4 }},
	{name: "migrated NSM", edit: func(p *Profile) { p.Migrations = []MigrationPoint{{At: p.Run / 2}} }},
}

// sideView is what the application saw of one end of a connection.
type sideView struct {
	bytes  []byte
	events []string
}

// appView keys each end of each connection by its workload id: the
// client's by its index, the server's by the id in the header it read.
func appView(h *harness) map[string]sideView {
	view := map[string]sideView{}
	for _, c := range h.conns {
		view[fmt.Sprintf("conn %d client", c.id)] = sideView{c.echoed, c.app.events}
	}
	for i, sc := range h.srvConns {
		key := fmt.Sprintf("server accept #%d (no header)", i)
		if len(sc.got) >= headerLen {
			key = fmt.Sprintf("conn %d server", binary.BigEndian.Uint32(sc.got))
		}
		view[key] = sideView{sc.got, sc.app.events}
	}
	return view
}

func TestTransparency(t *testing.T) {
	seeds := fixedSeeds
	switch {
	case *chaosSeed != 0:
		seeds = []uint64{*chaosSeed}
	case *chaosRandom:
		seeds = append(slices.Clone(seeds), uint64(time.Now().UnixNano())|1)
	}
	for _, seed := range seeds {
		var ref map[string]sideView
		for _, v := range transparencyVariants {
			prof := transparencyLAN()
			if v.edit != nil {
				v.edit(&prof)
			}
			h := newHarness(seed, prof)
			h.legacy, h.shared = v.legacy, v.shared
			res := h.report(t)
			if v.shared && h.server.NSM.Tenants() != 2 {
				t.Fatalf("[seed %d] %s: the server's module serves %d tenants", seed, v.name, h.server.NSM.Tenants())
			}
			if len(prof.Migrations) > 0 && res.Migrated != 1 {
				t.Fatalf("[seed %d] %s: %d migrations completed", seed, v.name, res.Migrated)
			}
			view := appView(h)
			if ref == nil {
				ref = view
				for _, c := range h.conns {
					if !bytes.Equal(c.echoed, c.payload) {
						t.Errorf("[seed %d] %s: conn %d echoed %d of %d bytes", seed, v.name, c.id, len(c.echoed), len(c.payload))
					}
				}
				continue
			}
			for key, want := range ref {
				got, ok := view[key]
				switch {
				case !ok:
					t.Errorf("[seed %d] %s: no %s", seed, v.name, key)
				case !bytes.Equal(got.bytes, want.bytes):
					t.Errorf("[seed %d] %s: %s saw %d bytes, %s %d", seed, v.name, key, len(got.bytes), transparencyVariants[0].name, len(want.bytes))
				case !slices.Equal(got.events, want.events):
					t.Errorf("[seed %d] %s: %s saw %v, %s %v", seed, v.name, key, got.events, transparencyVariants[0].name, want.events)
				}
			}
			if len(view) != len(ref) {
				t.Errorf("[seed %d] %s: %d connection ends, %s %d", seed, v.name, len(view), transparencyVariants[0].name, len(ref))
			}
		}
	}
}
