package experiments

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The exact record. Every virtual-time artefact is a pure function of its
// seed, so each test that computes one also compares its whole result,
// one value per line, with testdata/record.txt. A mismatch fails the test
// with each moved key as old → new, and the run writes the record it
// observed to testdata/record.got; after a deliberate move,
//
//	mv internal/experiments/testdata/record.got internal/experiments/testdata/record.txt
//
// accepts it.

func TestMain(m *testing.M) { os.Exit(withRecord(m)) }

// record is the committed record; observed is it with every value this
// run computed, written to testdata/record.got when one moved; checked
// holds every key a test compared.
var (
	record, observed map[string]string
	checked          = map[string]bool{}
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
	if code == 0 && fullRun() {
		code = orphans()
	}
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

// fullRun reports whether every recorded test ran: no -run or -skip
// filter, no -short. A -list run runs no test.
func fullRun() bool {
	return flag.Lookup("test.list").Value.String() == "" && flag.Lookup("test.run").Value.String() == "" &&
		flag.Lookup("test.skip").Value.String() == "" && !testing.Short()
}

// orphans fails a full run on each committed key no test checked, the
// lines an artefact leaves behind when it is deleted, and drops them from
// the record it writes.
func orphans() int {
	var keys []string
	for k := range record {
		if !checked[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "record %s: committed, but no test checked it\n", k)
		delete(observed, k)
		moved = true
	}
	if len(keys) > 0 {
		return 1
	}
	return 0
}

// checkRecord compares what a test observed under name with the record,
// keys the record holds under name that the test no longer produced
// included.
func checkRecord(t *testing.T, name string, v any) {
	t.Helper()
	got := values(name, v)
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
		checked[k] = true
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

// values flattens v into one line per scalar, named from name: struct
// fields by name, slice and array elements by index, map entries by key.
// A slice or array longer than 16 elements (a run's spans, a histogram's
// buckets) is one line: its length and a hash of its %+v.
func values(name string, v any) map[string]string {
	out := map[string]string{}
	var flatten func(key string, v reflect.Value)
	flatten = func(key string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				flatten(key+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if v.Len() > 16 {
				sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v.Interface())))
				out[key] = fmt.Sprintf("%d×%x", v.Len(), sum[:8])
				return
			}
			for i := 0; i < v.Len(); i++ {
				flatten(fmt.Sprintf("%s[%d]", key, i), v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				flatten(fmt.Sprintf("%s[%v]", key, it.Key()), it.Value())
			}
		default:
			out[key] = fmt.Sprint(v.Interface())
		}
	}
	flatten(name, reflect.ValueOf(v))
	return out
}
