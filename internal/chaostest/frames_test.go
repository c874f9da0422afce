package chaostest

import (
	"os"
	"testing"

	"netkernel/internal/framepool"
)

// Every scenario in this package runs with the frame pool's lifetime
// check on: a released buffer is overwritten at once and a second release
// of it panics. A layer that kept a frame past its release point would
// then read garbage — a checksum failure, a diverging echo, a trace that
// no longer replays — under the byte-exact and determinism invariants
// every scenario already applies; checkPools adds that every frame drawn
// is back in the pool after quiesce.
func TestMain(m *testing.M) {
	framepool.Poison(true)
	os.Exit(withRecord(m))
}

// The converse of TestMain's bet: overwriting released frames changes
// nothing. One seed of each fault family replays identically with the
// check off and on, so no layer's behaviour depends on the bytes of a
// frame it no longer owns.
func TestChaosPoisonChangesNothing(t *testing.T) {
	defer framepool.Poison(true)
	for _, prof := range []Profile{lossyReorderLAN(), gilbertElliottWAN(), nsmCrashRestart(), migrateLossyLAN()} {
		framepool.Poison(false)
		plain := Run(7, prof)
		framepool.Poison(true)
		poisoned := Run(7, prof)
		if diff, ok := Equal(plain, poisoned); !ok {
			t.Errorf("%s: poisoning released frames changed the run: %s", prof.Name, diff)
		}
	}
}
