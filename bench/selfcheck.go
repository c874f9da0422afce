package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// selfCheck proves two things about the harness itself. First, that its
// own bulk_echo load generator drives the committed scenario: with
// BENCH_echo.json's windows and seed it must reproduce that file's
// goodput and copies per byte. Second, that the model side is a pure
// function of the seed: one workload run twice in-process gives the same
// model_digest, and another seed gives another.
func selfCheck(w io.Writer) error {
	// The committed numbers sit at the repository root, the working
	// directory of go run ./bench.
	const path = "BENCH_echo.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed struct {
		History []struct {
			Goodput float64 `json:"echo_goodput_gbps"`
			Tx      float64 `json:"tx_copies_per_byte"`
			Rx      float64 `json:"rx_copies_per_byte"`
		} `json:"history"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil || len(committed.History) == 0 {
		return fmt.Errorf("%s: no history (%v)", path, err)
	}
	want := committed.History[len(committed.History)-1]

	echo := workloadByName("bulk_echo")
	res, err := run(runConfig{wl: echo, seed: 4242, setups: 1, exact: true,
		sz: sizes{warmup: 100 * time.Millisecond, slice: 25 * time.Millisecond, slices: 4}})
	if err != nil {
		return err
	}
	tx := res.value("guestlib.tx_copies_per_byte") + res.value("servicelib.tx_copies_per_byte") + res.value("tcp.tx_copies_per_byte")
	rx := res.value("guestlib.rx_copies_per_byte") + res.value("servicelib.rx_copies_per_byte") + res.value("tcp.rx_copies_per_byte")
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"echo goodput (Gbit/s)", res.value("model_goodput_gbps"), want.Goodput, 0.005},
		{"tx copies per byte", tx, want.Tx, 0.0005},
		{"rx copies per byte", rx, want.Rx, 0.0005},
	} {
		fmt.Fprintf(w, "selfcheck: %-24s %.4f, committed %.4f\n", c.name, c.got, c.want)
		if math.Abs(c.got-c.want) > c.tol {
			return fmt.Errorf("%s = %.4f, BENCH_echo.json records %.4f", c.name, c.got, c.want)
		}
	}

	rpc := workloadByName("rpc_shared")
	small := sizes{warmup: 5 * time.Millisecond, slice: 2 * time.Millisecond, slices: 6}
	var digests [3]string
	for i, seed := range []uint64{4242, 4242, 777} {
		r, err := run(runConfig{wl: rpc, seed: seed, sz: small, setups: 1})
		if err != nil {
			return err
		}
		digests[i] = r.ModelDigest
		fmt.Fprintf(w, "selfcheck: rpc_shared seed %-5d model_digest %s\n", seed, r.ModelDigest)
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("same seed gave model digests %s and %s", digests[0], digests[1])
	}
	if digests[0] == digests[2] {
		return fmt.Errorf("seeds 4242 and 777 gave the same model digest %s: the seed reaches nothing", digests[0])
	}
	fmt.Fprintln(w, "selfcheck: ok")
	return nil
}
