package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"bagconsistency/internal/bagio"
	"bagconsistency/internal/core"
	"bagconsistency/internal/ilp"
	"bagconsistency/pkg/bagconsist"
)

// bagcdMaxNodes is bagcd's default -max-nodes; the replay decides with
// the options bagcd runs with.
const bagcdMaxNodes = 10_000_000

// Layer names of the traced replay, one per span kind.
const (
	layerRPC       = "bagclient.rpc"
	layerEncode    = "bagclient.encode"
	layerDecode    = "bagio.decode"
	layerFP        = "canon.fingerprint"
	layerHit       = "bagconsist.hit"
	layerCheck     = "bagconsist.check"
	layerClassify  = "hypergraph.classify"
	layerPairwise  = "core.pairwise"
	layerWitness   = "core.witness"
	layerWitMin    = "core.witness_min"
	layerProgram   = "core.program_build"
	layerILPSearch = "ilp.search"
)

// replayLayers lists every layer whose self time the traced run reports.
var replayLayers = []string{
	layerRPC, layerEncode, layerDecode, layerFP, layerHit, layerCheck,
	layerClassify, layerPairwise, layerWitness, layerWitMin, layerProgram, layerILPSearch,
}

// span is one timed call. Spans of one request share req; parent is the
// index of the calling span, -1 for the root. The replay runs each layer's
// call on its own, after the RPC, so a span's self time is its duration
// minus the durations of its children.
type span struct {
	req    int
	parent int
	layer  string
	dur    time.Duration
}

type tracer struct {
	spans []span
	req   int
}

// timed runs fn as a span under parent and returns the span's index.
func (t *tracer) timed(parent int, layer string, fn func() error) (int, error) {
	t0 := time.Now()
	err := fn()
	return t.add(parent, layer, time.Since(t0)), err
}

func (t *tracer) add(parent int, layer string, d time.Duration) int {
	t.spans = append(t.spans, span{req: t.req, parent: parent, layer: layer, dur: d})
	return len(t.spans) - 1
}

// selfTimes sums each layer's self time over all spans; the root layer's
// self time is the part of the RPC no replayed layer accounts for.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.layer] += s.dur
		if s.parent >= 0 {
			self[t.spans[s.parent].layer] -= s.dur
		}
	}
	return self
}

// countingTransport counts request and response body bytes.
type countingTransport struct {
	rt       http.RoundTripper
	sent, rx atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.sent.Add(req.ContentLength)
	resp, err := c.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.rx}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// traceResult is what the traced run measured.
type traceResult struct {
	n              int
	self           map[string]time.Duration
	rpc            []time.Duration
	reqBytes       int64
	respBytes      int64
	replayILPNodes int64
	serverILPNodes float64
}

// traceRun sends each request through one bagclient.Check on a fresh,
// equally warmed bagcd, then replays it in-process through each layer's
// public entry point on the path bagcd took: decode, then a primed-cache
// hit (hot-repeat) or an uncached check and the engine calls under it.
func traceRun(ctx context.Context, env *runEnv, p *plan, reqs []request) (*traceResult, error) {
	srv, _, _, err := env.setUp(ctx, p)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ct := &countingTransport{rt: &http.Transport{MaxConnsPerHost: 1}}
	cli, err := newClient(srv.addr, ct)
	if err != nil {
		return nil, err
	}
	st, err := bagconsist.OpenStore(filepath.Join(srv.dir, "replay-store"))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ck := bagconsist.New(bagconsist.WithMaxNodes(bagcdMaxNodes),
		bagconsist.WithSharedCache(bagconsist.NewCache(cacheSize)), bagconsist.WithStore(st))
	hit := p.hits
	if hit {
		for _, r := range p.warmup {
			if _, err := ck.CheckGlobal(ctx, r.coll); err != nil {
				return nil, err
			}
		}
	}
	opts := core.GlobalOptions{MaxNodes: bagcdMaxNodes, SolverWorkers: 1}
	before, err := scrape(ctx, cli)
	if err != nil {
		return nil, err
	}

	res := &traceResult{n: len(reqs)}
	tr := &tracer{}
	for i, r := range reqs {
		tr.req = i
		t0 := time.Now()
		if _, err := check(ctx, cli, r); err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		res.rpc = append(res.rpc, time.Since(t0))
		root := tr.add(-1, layerRPC, res.rpc[i])
		if err := replay(ctx, tr, root, r, ck, opts, hit, res); err != nil {
			return nil, fmt.Errorf("replay of request %d: %w", i, err)
		}
	}

	after, err := scrape(ctx, cli)
	if err != nil {
		return nil, err
	}
	res.self = tr.selfTimes()
	res.reqBytes, res.respBytes = ct.sent.Load(), ct.rx.Load()
	res.serverILPNodes = delta(before, after, "bagcd_ilp_nodes_total")
	return res, nil
}

// replay times each layer's call for one request under the RPC span.
func replay(ctx context.Context, tr *tracer, root int, r request, ck *bagconsist.Checker,
	opts core.GlobalOptions, hit bool, res *traceResult) error {
	var body []byte
	if _, err := tr.timed(root, layerEncode, func() (err error) {
		body, err = encodeBody(r)
		return err
	}); err != nil {
		return err
	}
	var coll *core.Collection
	if _, err := tr.timed(root, layerDecode, func() error {
		_, bags, err := bagio.DecodeAny(bytes.NewReader(body))
		if err != nil {
			return err
		}
		coll, err = bagio.ToCollection(bags)
		return err
	}); err != nil {
		return err
	}

	layer := layerCheck
	if hit {
		layer = layerHit
	}
	top, err := tr.timed(root, layer, func() error {
		rep, err := ck.CheckGlobal(ctx, coll)
		if err == nil && rep.CacheHit != hit {
			err = fmt.Errorf("replay cache_hit=%v, want %v", rep.CacheHit, hit)
		}
		return err
	})
	if err != nil {
		return err
	}
	if _, err := tr.timed(top, layerFP, func() error {
		_, err := bagconsist.FingerprintCollection(coll)
		return err
	}); err != nil || hit {
		return err
	}

	// The uncached check: classify the schema, then the polynomial
	// acyclic path or the cyclic path of GloballyConsistentContext.
	acyclic := false
	_, _ = tr.timed(top, layerClassify, func() error { acyclic = coll.Hypergraph().IsAcyclic(); return nil })
	if acyclic {
		wit, err := tr.timed(top, layerWitness, func() error {
			_, _, err := coll.WitnessAcyclicContext(ctx, opts)
			return err
		})
		if err != nil {
			return err
		}
		full := tr.spans[wit].dur
		if _, err := tr.timed(wit, layerClassify, func() error {
			_, err := coll.Hypergraph().RunningIntersectionOrder()
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.timed(wit, layerPairwise, func() error { _, err := coll.PairwiseConsistent(); return err }); err != nil {
			return err
		}
		raw := opts
		raw.SkipWitnessMinimization = true
		t0 := time.Now()
		if _, _, err := coll.WitnessAcyclicContext(ctx, raw); err != nil {
			return err
		}
		tr.add(wit, layerWitMin, full-time.Since(t0))
		return nil
	}
	pw := false
	if _, err := tr.timed(top, layerPairwise, func() (err error) { pw, err = coll.PairwiseConsistent(); return err }); err != nil || !pw {
		return err
	}
	var prob *ilp.Problem
	if _, err := tr.timed(top, layerProgram, func() (err error) { prob, _, err = coll.BuildProgram(); return err }); err != nil {
		return err
	}
	if len(prob.Cols) == 0 {
		return nil
	}
	_, err = tr.timed(top, layerILPSearch, func() error {
		sol, err := ilp.SolveContext(ctx, prob, opts.ILP())
		if err == nil {
			res.replayILPNodes += sol.Nodes
		}
		return err
	})
	return err
}
