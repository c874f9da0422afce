package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readSets reads every result a file holds: -out appends one JSON object
// per invocation, so a file is a set of runs.
func readSets(path string) ([]resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sets []resultSet
	for dec := json.NewDecoder(f); ; {
		var s resultSet
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sets = append(sets, s)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return sets, nil
}

// side is one workload's runs in one file.
type side struct {
	vals    map[string][]float64 // metric → one value per run
	digests map[string]bool      // "seed/slice/digest" of every run
	fail    float64              // highest op_fail_ratio
}

func sidesOf(sets []resultSet) map[string]*side {
	out := map[string]*side{}
	for _, s := range sets {
		for _, r := range s.Workloads {
			if r.Traced {
				continue // a traced run is half as long and never a source of end-to-end numbers
			}
			sd := out[r.Workload]
			if sd == nil {
				sd = &side{vals: map[string][]float64{}, digests: map[string]bool{}}
				out[r.Workload] = sd
			}
			for _, list := range [][]metric{r.EndToEnd, r.PerLayer} {
				for _, m := range list {
					sd.vals[m.Name] = append(sd.vals[m.Name], m.Value)
				}
			}
			sd.digests[fmt.Sprintf("seed %d, %d x %g ms: %s", r.Seed, r.Slices, r.SliceMs, r.ModelDigest)] = true
			if r.OpFailRatio > sd.fail {
				sd.fail = r.OpFailRatio
			}
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the median:
// a set's own run-to-run noise.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict judges B against A for one metric by its bound. A set whose
// own spread exceeds the bound cannot resolve a change of that size.
func verdict(d def, bound float64, a, b []float64) string {
	if spread(a) > bound || spread(b) > bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, ma) // > 0: B is larger
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

// sameTo4 reports whether two values agree to 4 significant digits.
func sameTo4(a, b float64) bool {
	return fmt.Sprintf("%.3e", a) == fmt.Sprintf("%.3e", b)
}

// compareMain implements `bench compare A.json B.json`: one row per
// (workload, end-to-end metric) with both medians, the ratio B/A and its
// base, and the verdict by the benchmark's bounds. It returns the exit
// code: non-zero on any "worse" row or a higher op_fail_ratio.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var sides [2]map[string]*side
	for i, path := range args {
		sets, err := readSets(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		sides[i] = sidesOf(sets)
	}
	code := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median (n)\tB median (n)\tB/A (base A)\tbound\tverdict\n")
	for _, wl := range workloads {
		a, b := sides[0][wl.name], sides[1][wl.name]
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.vals[d.Name], b.vals[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound := boundFor(d, wl.name)
			v := verdict(d, bound, va, vb)
			if v == "worse" {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.6g (%d)\t%.6g (%d)\t%.4f (%.6g)\t%g%%\t%s\n",
				wl.name, d.Name, ma, len(va), mb, len(vb), ratio(mb, ma), ma, 100*bound, v)
		}
		failVerdict := "same"
		if b.fail > a.fail {
			failVerdict, code = "worse", 1
		}
		fmt.Fprintf(tw, "%s\top_fail_ratio\t%g\t%g\t\t0\t%s\n", wl.name, a.fail, b.fail, failVerdict)
		// Counts that repeat exactly for a seed: equal to 4 significant
		// digits, or the simulated work changed.
		for _, name := range []string{"host_allocs_per_op", "sim.events_per_op"} {
			if va, vb := a.vals[name], b.vals[name]; len(va) > 0 && len(vb) > 0 {
				eq := "equal to 4 digits"
				if !sameTo4(median(va), median(vb)) {
					eq = "differs"
				}
				fmt.Fprintf(tw, "%s\t%s (count)\t%.6g\t%.6g\t\t\t%s\n", wl.name, name, median(va), median(vb), eq)
			}
		}
		digest := "identical"
		if len(a.digests) != len(b.digests) {
			digest = "differs"
		}
		for k := range a.digests {
			if !b.digests[k] {
				digest = "differs"
			}
		}
		fmt.Fprintf(tw, "%s\tmodel_digest\t%d distinct\t%d distinct\t\t\t%s\n", wl.name, len(a.digests), len(b.digests), digest)
	}
	tw.Flush()
	return code
}
