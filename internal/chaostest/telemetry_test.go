package chaostest

import (
	"strings"
	"testing"
)

// TestTraceDeterminism is the tracing counterpart of
// TestChaosDeterminism: with sampling armed, two runs of the same seed
// must produce byte-identical span sequences — same operations sampled,
// same hops in the same order, and the exact same virtual-time hop
// offsets and span durations (Span.Format embeds both, so string
// equality is the strongest check). Anything nondeterministic in the
// tracer — RNG-based sampling, map iteration, wall-clock stamps —
// breaks this immediately.
func TestTraceDeterminism(t *testing.T) {
	prof := lossyReorderLAN()
	prof.TraceSampleEvery = 8
	const seed = 1234
	a := replay(t, seed, prof)
	if len(a.Spans) == 0 {
		t.Fatal("no completed spans: tracing sampled nothing")
	}

	// The spans must actually describe the pipeline: a send-path span
	// walks GuestLib → engine → ServiceLib → stack.
	var sawTx, sawRx bool
	for _, s := range a.Spans {
		if strings.Contains(s, "tx:") && strings.Contains(s, "guestlib.enqueue") &&
			strings.Contains(s, "engine.vm-pump") && strings.Contains(s, "servicelib.dispatch") {
			sawTx = true
		}
		if strings.Contains(s, "rx:") && strings.Contains(s, "servicelib.emit") &&
			strings.Contains(s, "engine.nsm-pump") && strings.Contains(s, "guestlib.deliver") {
			sawRx = true
		}
	}
	if !sawTx {
		t.Errorf("no complete send-path span among %d spans; first: %q", len(a.Spans), a.Spans[0])
	}
	if !sawRx {
		t.Errorf("no complete receive-path span among %d spans; first: %q", len(a.Spans), a.Spans[0])
	}
}

// TestChaosTelemetryInvariants drives the bursty Gilbert–Elliott WAN
// profile with tracing armed and holds the registry to ground truth:
// per-queue conservation (enqueued == dequeued + in-flight), snapshot
// gauges equal to the switch/engine/stack ledgers they mirror, and
// span-latency histograms consistent with the completed spans. The
// telemetry checks themselves run inside RunAndCheck for every chaos
// scenario; this test pins the WAN + tracing combination.
func TestChaosTelemetryInvariants(t *testing.T) {
	prof := gilbertElliottWAN()
	prof.TraceSampleEvery = 4
	const seed = 7
	res := RunAndCheck(t, seed, prof)
	if len(res.Spans) == 0 {
		t.Error("no completed spans under the WAN profile")
	}
}
