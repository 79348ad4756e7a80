package service

import (
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/portfolio"
	"pipesched/internal/service/cache"
	"pipesched/internal/workload"
)

// Object-side canonical keys: the test oracles the serving path's wire
// keys (solveKeyWire, sweepKeyWire, batchKeyWire) are pinned against.
// They hash constructed pipeline and platform objects into the same
// byte stream the wire keys hash from decoded request slices.

// pipeline appends the full applicative description: stage works and
// communication sizes.
func (c *canon) pipeline(app *pipeline.Pipeline) {
	c.floats(app.Works())
	c.floats(app.Deltas())
}

// platform appends the full platform description, discriminated by kind.
func (c *canon) platform(plat *platform.Platform) {
	c.u64(uint64(plat.Kind()))
	c.floats(plat.Speeds())
	switch plat.Kind() {
	case platform.CommHomogeneous:
		c.f64(plat.Bandwidth())
	case platform.FullyHeterogeneous:
		p := plat.Processors()
		c.u64(uint64(p))
		for u := 1; u <= p; u++ {
			c.u64(uint64(p))
			for v := 1; v <= p; v++ {
				if u == v {
					c.f64(0)
				} else {
					c.f64(plat.LinkBandwidth(u, v))
				}
			}
		}
	}
}

// solveKey digests a solve request from constructed objects. It must
// produce the same key as solveKeyWire on the same instance; tests pin
// the equivalence.
func solveKey(objective portfolio.Objective, mode string, bound float64, app *pipeline.Pipeline, plat *platform.Platform) cache.Key {
	c := newCanon("solve")
	c.u64(uint64(objective))
	c.str(mode)
	c.f64(bound)
	c.pipeline(app)
	c.platform(plat)
	return c.key()
}

// sweepKey digests a sweep request from constructed objects; it matches
// sweepKeyWire exactly like solveKey matches solveKeyWire.
func sweepKey(points int, app *pipeline.Pipeline, plat *platform.Platform) cache.Key {
	c := newCanon("sweep")
	c.u64(uint64(points))
	c.pipeline(app)
	c.platform(plat)
	return c.key()
}

// batchKey digests one /v1/batch request. Worker count is deliberately
// excluded: the batch engine guarantees results identical for any worker
// count, so scheduling knobs must not fragment the cache. A platform
// whose canonical stream repeats the previous instance's is written as
// samePlatform, as batchKeyWire writes it; here the two streams are
// compared by their digests.
func batchKey(opts portfolio.BatchOptions, instances []workload.Instance) cache.Key {
	c := newCanon("batch")
	c.u64(uint64(opts.Objective))
	c.f64(opts.Bound)
	c.u64(boolBit(opts.RelativeBound))
	c.u64(boolBit(opts.Exact))
	c.u64(uint64(len(instances)))
	var prev cache.Key
	for i, in := range instances {
		c.pipeline(in.App)
		pk := platformKey(in.Plat)
		if i > 0 && pk == prev {
			c.u64(samePlatform)
		} else {
			c.platform(in.Plat)
		}
		prev = pk
	}
	return c.key()
}

// platformKey digests a platform's canonical stream alone.
func platformKey(plat *platform.Platform) cache.Key {
	c := newCanon("platform")
	c.platform(plat)
	return c.key()
}
