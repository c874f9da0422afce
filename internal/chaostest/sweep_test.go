package chaostest

import (
	"flag"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// -chaos.sweep=N runs N consecutive seeds from -chaos.base through every
// seeded scenario and prints one table of the failures, bucketed by
// message with the digits stripped:
//
//	go test ./internal/chaostest/ -run TestChaosSweep -chaos.sweep=200 -chaos.base=9000001 -v
var (
	chaosSweep = flag.Int("chaos.sweep", 0, "run this many consecutive seeds through every seeded scenario and print a failure table")
	chaosBase  = flag.Uint64("chaos.base", 1, "first seed of a -chaos.sweep")
)

// sweepRun is one run's reporter: it records violations (and a panic)
// instead of failing the test.
type sweepRun struct{ msgs []string }

func (r *sweepRun) Helper() {}

func (r *sweepRun) Errorf(format string, args ...interface{}) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *sweepRun) run(seed uint64, sc scenario) {
	defer func() {
		if p := recover(); p != nil {
			r.Errorf("panic: %v", p)
		}
	}()
	res := RunAndReport(r, seed, sc.prof)
	if sc.check != nil {
		sc.check(r, seed, res)
	}
}

var digits = regexp.MustCompile(`[0-9]+`)

// A bucket is one scenario's failures that read the same once their
// digits are stripped.
type bucket struct {
	scenario, msg string
	lines         int
	seeds         map[uint64]bool
	first         uint64
}

// TestChaosSweep is a measurement, not a gate: it reports the failure
// table and passes whatever it holds. Every run is seeded, so two sweeps
// over the same seeds print identical tables unless a change reached an
// invariant.
func TestChaosSweep(t *testing.T) {
	if *chaosSweep <= 0 {
		t.Skip("set -chaos.sweep=N to sweep N seeds")
	}
	scenarios := seededScenarios()
	buckets := map[string]*bucket{}
	failedSeeds := map[uint64]bool{}
	for i := 0; i < *chaosSweep; i++ {
		seed := *chaosBase + uint64(i)
		for _, sc := range scenarios {
			var r sweepRun
			r.run(seed, sc)
			for _, m := range r.msgs {
				m = digits.ReplaceAllString(strings.ReplaceAll(m, "\n", " "), "N")
				key := sc.prof.Name + "\x00" + m
				b := buckets[key]
				if b == nil {
					b = &bucket{scenario: sc.prof.Name, msg: m, seeds: map[uint64]bool{}, first: seed}
					buckets[key] = b
				}
				b.lines++
				b.seeds[seed] = true
				failedSeeds[seed] = true
			}
		}
	}
	rows := make([]*bucket, 0, len(buckets))
	for _, b := range buckets {
		rows = append(rows, b)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].scenario != rows[j].scenario {
			return rows[i].scenario < rows[j].scenario
		}
		if len(rows[i].seeds) != len(rows[j].seeds) {
			return len(rows[i].seeds) > len(rows[j].seeds)
		}
		return rows[i].msg < rows[j].msg
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "seeds %d–%d × %d scenarios: %d of %d seeds fail at least one\n",
		*chaosBase, *chaosBase+uint64(*chaosSweep)-1, len(scenarios), len(failedSeeds), *chaosSweep)
	fmt.Fprintf(&sb, "| scenario | failure (digits → N) | lines | seeds | first seed |\n|---|---|---|---|---|\n")
	for _, b := range rows {
		fmt.Fprintf(&sb, "| %s | %s | %d | %d | %d |\n", b.scenario, b.msg, b.lines, len(b.seeds), b.first)
	}
	t.Log("\n" + sb.String())
}
