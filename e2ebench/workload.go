package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"bagconsistency/internal/bagio"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/load"
	"bagconsistency/pkg/bagclient"
	"bagconsistency/pkg/bagconsist"
)

// Workload names, as passed to -workload.
const (
	acyclicCold = "acyclic-cold"
	cyclicCold  = "cyclic-cold"
	hotRepeat   = "hot-repeat"
)

// Sizing. Every run of a workload sends the same number of requests for a
// given -seconds, so every run does the same work; the list ends a run,
// not a timer. The per-second counts are near the slower end of the
// one-client closed-loop rates measured on a 2-CPU runner (140-215,
// 680-1060 and 410-520 requests/s), so a run takes about -seconds.
const (
	acyclicPerSec = 170 // acyclic-cold requests per second of -seconds
	cyclicPerSec  = 800 // cyclic-cold requests per second of -seconds
	hotPerSec     = 450 // hot-repeat requests per second of -seconds

	acyclicSupport = 256 // global-bag support of acyclic items
	perturbShare   = 0.2 // share of acyclic items made inconsistent
	cyclicN        = 3   // 3DCT dimension of cyclic items
	// cyclicMaxV bounds 3DCT entries, and with them the heavy tail of the
	// integer search: over 60,000 items the slowest took 113 ms at 6 and
	// 857 ms at 10.
	cyclicMaxV = 6

	hotItems   = 64  // distinct instances behind hot-repeat
	hotAcyclic = 0.7 // share of acyclic instances in the hot set
	hotZipfS   = 1.1 // popularity skew over the hot set
	familyWarm = 64  // untimed requests of the workload's own family
	cacheSize  = 4096
	// segmentSeconds is the nominal length of one timed segment; a run
	// has at least minSegments.
	segmentSeconds = 1
	minSegments    = 5
)

// request is one check the generator sends, with the verdict the paper's
// oracle expects for it.
type request struct {
	bags []bagclient.NamedBag
	coll *core.Collection
	want bool
}

// plan is everything one workload run sends: untimed warm-up (cache
// fillers and family warm-up, or the primed hot set) and the timed list.
type plan struct {
	name string
	// hits says every timed request is a cache hit; on the cold
	// workloads none is.
	hits     bool
	warmup   []request
	reqs     []request
	segments int
}

// buildPlan generates a workload's requests from the seed alone. The
// timed list is sized to seconds; warm-up is not, because it is what
// makes the timed requests behave as the workload says. The timed list is
// cut into segments of about segmentSeconds each.
func buildPlan(name string, seed int64, seconds float64) (*plan, error) {
	p, err := buildList(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	p.segments = min(len(p.reqs), max(minSegments, int(seconds/segmentSeconds+0.5)))
	return p, nil
}

func buildList(name string, seed int64, seconds float64) (*plan, error) {
	count := func(perSec float64) int { return max(1, int(perSec*seconds+0.5)) }
	switch name {
	case acyclicCold:
		n := count(acyclicPerSec)
		items, err := acyclicItems(seed, familyWarm+n)
		if err != nil {
			return nil, err
		}
		return &plan{name: name, warmup: append(fillers(), items[:familyWarm]...), reqs: items[familyWarm:]}, nil
	case cyclicCold:
		n := count(cyclicPerSec)
		items, err := cyclicItems(seed, familyWarm+n)
		if err != nil {
			return nil, err
		}
		return &plan{name: name, warmup: append(fillers(), items[:familyWarm]...), reqs: items[familyWarm:]}, nil
	case hotRepeat:
		return hotPlan(seed, count(hotPerSec))
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, acyclicCold, cyclicCold, hotRepeat)
}

// newRequest wraps a collection with its expected verdict.
func newRequest(coll *core.Collection, want bool) request {
	bags := make([]bagclient.NamedBag, coll.Len())
	for i, b := range coll.Bags() {
		bags[i] = bagclient.NamedBag{Name: "r" + strconv.Itoa(i), Bag: b}
	}
	return request{bags: bags, coll: coll, want: want}
}

// acyclicItems draws path and star collections from the load lab's corpus
// and perturbs a share of them, so refutations run too. The expected
// verdict is Theorem 2: on an acyclic schema, global consistency is
// pairwise consistency.
func acyclicItems(seed int64, n int) ([]request, error) {
	items, err := load.BuildCorpus(load.CorpusSpec{Seed: seed, Items: n, AcyclicFrac: 1, Support: acyclicSupport})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]request, len(items))
	for i, it := range items {
		coll := it.Collection
		if rng.Float64() < perturbShare {
			if coll, err = gen.Perturb(rng, coll); err != nil {
				return nil, err
			}
		}
		want, err := coll.PairwiseConsistent()
		if err != nil {
			return nil, err
		}
		out[i] = newRequest(coll, want)
	}
	return out, nil
}

// cyclicItems draws 3DCT triangle collections; the margins of a table
// are consistent by construction.
func cyclicItems(seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	for i := range out {
		inst, err := gen.RandomThreeDCT(rng, cyclicN, cyclicMaxV)
		if err != nil {
			return nil, err
		}
		coll, err := inst.ToCollection()
		if err != nil {
			return nil, err
		}
		out[i] = newRequest(coll, true)
	}
	return out, nil
}

// fillers are cacheSize distinct consistent pairs that fill bagcd's
// result cache during set-up, so every timed cold request evicts. Their
// multiplicities make them distinct under the cache's canonical
// fingerprint, which ignores value names.
func fillers() []request {
	r := bagconsist.MustSchema("A", "B")
	s := bagconsist.MustSchema("B", "C")
	h, err := bagconsist.NewHypergraph([][]string{{"A", "B"}, {"B", "C"}})
	if err != nil {
		panic(err)
	}
	out := make([]request, cacheSize)
	for i := range out {
		m := int64(i + 1)
		rb, err1 := bagconsist.BagFromRows(r, [][]string{{"a", "b"}}, []int64{m})
		sb, err2 := bagconsist.BagFromRows(s, [][]string{{"b", "c"}}, []int64{m})
		coll, err3 := bagconsist.NewCollection(h, []*bagconsist.Bag{rb, sb})
		if err1 != nil || err2 != nil || err3 != nil {
			panic(fmt.Sprint(err1, err2, err3))
		}
		out[i] = newRequest(coll, true)
	}
	return out
}

// hotPlan builds hot-repeat: a Zipf-popular hot set, primed during
// set-up, and n renamed, tuple-permuted variants of its items, each
// drawn by popularity. Every variant has its base's canonical
// fingerprint, so every timed request is a cache hit even though no two
// request bodies are equal.
func hotPlan(seed int64, n int) (*plan, error) {
	items, err := load.BuildCorpus(load.CorpusSpec{
		Seed: seed, Items: hotItems, AcyclicFrac: hotAcyclic,
		Support: acyclicSupport, CyclicN: cyclicN, CyclicMaxV: cyclicMaxV,
	})
	if err != nil {
		return nil, err
	}
	// BuildCorpus shuffles; its names keep each family's generation order,
	// in which acyclic shapes rotate. Popularity ranks are then dealt to
	// the families in a fixed interleave, and every fifth acyclic item is
	// perturbed, so every seed puts the same kinds of items at the same
	// ranks. Under Zipf the top ranks carry most requests, and a random
	// deal would make the cost per request depend on the seed.
	slices.SortFunc(items, func(a, b load.Item) int { return strings.Compare(a.Name, b.Name) })
	var acyclic, cyclic []load.Item
	for _, it := range items {
		if it.Cyclic {
			cyclic = append(cyclic, it)
		} else {
			acyclic = append(acyclic, it)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	bases := make([]request, 0, len(items))
	for r := range items {
		a := r * len(acyclic) / len(items)
		if (r+1)*len(acyclic)/len(items) == a {
			bases = append(bases, newRequest(cyclic[r-a].Collection, true))
			continue
		}
		coll := acyclic[a].Collection
		if a%5 == 4 {
			if coll, err = gen.Perturb(rng, coll); err != nil {
				return nil, err
			}
		}
		want, err := coll.PairwiseConsistent()
		if err != nil {
			return nil, err
		}
		bases = append(bases, newRequest(coll, want))
	}
	p := &plan{name: hotRepeat, hits: true, warmup: bases}
	for i := range familyWarm {
		v, err := variant(bases[i%len(bases)], rng, -1-i)
		if err != nil {
			return nil, err
		}
		p.warmup = append(p.warmup, v)
	}
	// Rank r (from 0) is drawn with probability proportional to
	// 1/(r+1)^hotZipfS.
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(bases)-1))
	for i := range n {
		v, err := variant(bases[zipf.Uint64()], rng, i)
		if err != nil {
			return nil, err
		}
		p.reqs = append(p.reqs, v)
	}
	return p, nil
}

// variant renames every value of base (one bijection per attribute,
// shared by all bags, as the cache's canonical form allows) and inserts
// each bag's tuples in a shuffled order.
func variant(base request, rng *rand.Rand, tag int) (request, error) {
	prefix := "v" + strconv.Itoa(tag) + "."
	bags := base.coll.Bags()
	out := make([]*bagconsist.Bag, len(bags))
	for i, b := range bags {
		nb := bagconsist.NewBag(b.Schema())
		tuples := b.Tuples()
		rng.Shuffle(len(tuples), func(x, y int) { tuples[x], tuples[y] = tuples[y], tuples[x] })
		for _, t := range tuples {
			vals := t.Values()
			renamed := make([]string, len(vals))
			for k, v := range vals {
				renamed[k] = prefix + v
			}
			if err := nb.Add(renamed, b.CountTuple(t)); err != nil {
				return request{}, err
			}
		}
		out[i] = nb
	}
	coll, err := core.NewCollection(base.coll.Hypergraph(), out)
	if err != nil {
		return request{}, err
	}
	return newRequest(coll, base.want), nil
}

// encodeBody renders a request as the JSON body bagclient sends.
func encodeBody(r request) ([]byte, error) {
	named := make([]bagio.NamedBag, len(r.bags))
	for i, nb := range r.bags {
		named[i] = bagio.NamedBag{Name: nb.Name, Bag: nb.Bag}
	}
	var buf bytes.Buffer
	err := bagio.EncodeJSON(&buf, named)
	return buf.Bytes(), err
}
