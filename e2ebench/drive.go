package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bagconsistency/pkg/bagclient"
	"bagconsistency/pkg/bagconsist"
)

// outcome is what one timed request returned.
type outcome struct {
	rep *bagconsist.Report
	err error
	// lat runs from send to the decoded reply.
	lat time.Duration
}

// segment is one slice of the timed list: its size, wall time and the
// bagcd CPU it cost.
type segment struct {
	n    int
	wall time.Duration
	cpu  float64
}

// newClient returns a bagclient over rt with no retries: a shed request
// is a failed request.
func newClient(addr string, rt http.RoundTripper) (*bagclient.Client, error) {
	return bagclient.New("http://"+addr,
		bagclient.WithHTTPClient(&http.Client{Transport: rt}),
		bagclient.WithMaxRetries(0))
}

// check sends one request and checks its verdict against the oracle.
func check(ctx context.Context, cli *bagclient.Client, r request) (*bagconsist.Report, error) {
	rep, err := cli.Check(ctx, r.bags)
	if err != nil {
		return nil, err
	}
	if rep.Consistent != r.want {
		return rep, fmt.Errorf("wrong verdict: got consistent=%v, oracle says %v", rep.Consistent, r.want)
	}
	return rep, nil
}

// sendAll sends reqs from conns closed-loop workers and records each
// outcome at its index.
func sendAll(ctx context.Context, cli *bagclient.Client, reqs []request, out []outcome, conns int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				rep, err := check(ctx, cli, reqs[i])
				out[i] = outcome{rep: rep, err: err, lat: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
}

// warm sends untimed requests and fails on the first error or wrong
// verdict.
func warm(ctx context.Context, cli *bagclient.Client, reqs []request, conns int) error {
	out := make([]outcome, len(reqs))
	sendAll(ctx, cli, reqs, out, conns)
	for i, o := range out {
		if o.err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, o.err)
		}
	}
	return nil
}

// segmentBounds splits n requests into k consecutive segments.
func segmentBounds(n, k, i int) (lo, hi int) { return i * n / k, (i + 1) * n / k }

// runClosed times the list in consecutive segments, each drained by
// conns closed-loop workers, reading bagcd's CPU between segments.
func runClosed(ctx context.Context, cli *bagclient.Client, srv *server, reqs []request, conns, segments int) ([]outcome, []segment, error) {
	out := make([]outcome, len(reqs))
	segs := make([]segment, 0, segments)
	for k := range segments {
		lo, hi := segmentBounds(len(reqs), segments, k)
		if lo == hi {
			continue
		}
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		sendAll(ctx, cli, reqs[lo:hi], out[lo:hi], conns)
		wall := time.Since(t0)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, nil, err
		}
		segs = append(segs, segment{n: hi - lo, wall: wall, cpu: cpu1 - cpu0})
	}
	return out, segs, nil
}

// genMemLimit caps the generator's heap while its collector is off. A
// 30 s closed-loop run allocates past it, and the few collections it then
// triggers are reported as generator_gcs.
const genMemLimit = 1 << 30

// quietGC collects, then turns the generator's garbage collector off (it
// still runs if the heap nears genMemLimit), and returns the function that
// turns it back on. With GOMAXPROCS=2 a collection of the generator's few
// hundred MB takes one of its two Ps for tens of milliseconds, CPU time
// taken from bagcd.
func quietGC() (restore func()) {
	runtime.GC()
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(genMemLimit)
	return func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	}
}

// verifyWitnesses checks every returned witness against the request's
// collection, after the timed window. It returns the number of failed
// checks and the first failure.
func verifyWitnesses(reqs []request, out []outcome) (int, error) {
	failed := 0
	var first error
	fail := func(i int, err error) {
		failed++
		if first == nil {
			first = fmt.Errorf("request %d: %w", i, err)
		}
	}
	for i, o := range out {
		if o.err != nil || !o.rep.Consistent {
			continue
		}
		w, err := o.rep.WitnessBag()
		if err != nil || w == nil {
			fail(i, fmt.Errorf("consistent reply without a usable witness (%v)", err))
			continue
		}
		ok, err := reqs[i].coll.VerifyWitness(w)
		if err != nil || !ok {
			fail(i, fmt.Errorf("witness does not marginalize onto the request (%v)", err))
		}
	}
	return failed, first
}
