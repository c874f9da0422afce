package chaostest

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The exact record of the seeded scenarios. A run is a pure function of
// its seed, so each fixed and regression seed of every seeded scenario
// compares a digest of each Result field with testdata/record.txt, keyed
// scenario/seed=N.Field. A mismatch fails the run with each moved key as
// old → new, and the run writes the record it observed to
// testdata/record.got; after a deliberate move,
//
//	mv internal/chaostest/testdata/record.got internal/chaostest/testdata/record.txt
//
// accepts it. Seeds from -chaos.seed, -chaos.random and the sweep are
// not recorded.

// record is the committed record; observed is it with every value this
// run computed, written to testdata/record.got when one moved.
var (
	record, observed map[string]string
	moved            bool
)

// withRecord loads the record, runs the tests, and writes what they
// observed when a value moved.
func withRecord(m *testing.M) int {
	raw, err := os.ReadFile("testdata/record.txt")
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	record = map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok {
			record[k] = v
		}
	}
	observed = maps.Clone(record)
	code := m.Run()
	if moved {
		lines := make([]string, 0, len(observed))
		for k, v := range observed {
			lines = append(lines, k+" "+v+"\n")
		}
		sort.Strings(lines)
		if err := os.WriteFile("testdata/record.got", []byte(strings.Join(lines, "")), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return code
}

// checkRecord compares what a test observed under name with the record,
// keys the record holds under name that the test no longer produced
// included.
func checkRecord(t *testing.T, name string, res *Result) {
	t.Helper()
	got := digests(name, res)
	keys := []string{}
	for k := range record {
		if _, ok := got[k]; !ok && (strings.HasPrefix(k, name+".") || strings.HasPrefix(k, name+"[")) {
			keys = append(keys, k)
		}
	}
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		old, had := record[k]
		now, has := got[k]
		if had && has && old == now {
			continue
		}
		moved = true
		observed[k] = now
		if !has {
			now = "(none)"
			delete(observed, k)
		}
		if !had {
			old = "(none)"
		}
		t.Errorf("record %s: %s → %s", k, old, now)
	}
}

// digests keys each Result field as name.Field and gives its %+v, or a
// hash of that when it is longer than 64 bytes (the trace, the spans, the
// stats).
func digests(name string, res *Result) map[string]string {
	out := map[string]string{}
	v := reflect.ValueOf(*res)
	for i := 0; i < v.NumField(); i++ {
		s := fmt.Sprintf("%+v", v.Field(i).Interface())
		if len(s) > 64 {
			sum := sha256.Sum256([]byte(s))
			s = fmt.Sprintf("%x", sum[:8])
		}
		out[name+"."+v.Type().Field(i).Name] = s
	}
	return out
}
