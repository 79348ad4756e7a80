package service

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"pipesched/internal/platform"
	"pipesched/internal/portfolio"
	"pipesched/internal/service/cache"
)

// Canonical instance hashing. Every cacheable request is reduced to a
// deterministic wire form — a type-tagged byte stream over the exact
// float64 bit patterns of the instance — and digested with SHA-256 into a
// cache.Key. Two requests share a key if and only if they describe the
// same (pipeline, platform, objective, bound, mode) tuple, so the result
// cache can never conflate distinct problems.
//
// The hashers are pooled: a canon is leased per key computation, its
// SHA-256 state reset in place, and the digest lands in the caller's
// stack-allocated Key — hashing a request allocates nothing in steady
// state. The solve and sweep keys are computed directly from the decoded
// wire slices (works/deltas/speeds), so the serving hot path never has to
// materialise pipeline or platform objects just to ask the cache.
//
// The encoding is versioned: bump canonVersion whenever a field is added,
// removed or reordered, so stale keys from older layouts can never alias
// new ones (irrelevant for the in-memory cache, vital the day keys are
// persisted or shared between replicas). Version 2 added the fully
// heterogeneous platform arm (length-prefixed link-bandwidth rows).
const canonVersion = 2

// canon accumulates the canonical wire form directly into a hash.
type canon struct {
	h    hash.Hash
	buf  [8]byte
	sbuf [32]byte // string staging: avoids a []byte(s) heap copy per str
	sum  [32]byte // digest staging: Sum lands here, not in an escaping local
}

var canonPool = sync.Pool{New: func() any { return &canon{h: sha256.New()} }}

// newCanon leases a pooled hasher primed with the version and key kind.
// key() returns it to the pool.
func newCanon(kind string) *canon {
	c := canonPool.Get().(*canon)
	c.h.Reset()
	c.u64(canonVersion)
	c.str(kind)
	return c
}

// u64 appends one little-endian 64-bit word.
func (c *canon) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.buf[:], v)
	c.h.Write(c.buf[:])
}

// f64 appends the exact bit pattern of one float64. Bit-level identity is
// the right equality here: the solvers are deterministic functions of the
// input bits, so inputs differing only in, say, -0 vs +0 may legitimately
// be cached separately.
func (c *canon) f64(v float64) { c.u64(math.Float64bits(v)) }

// str appends a length-prefixed string. Short strings (every mode and
// kind tag is) stage through the inline buffer so the conversion to bytes
// never escapes to the heap.
func (c *canon) str(s string) {
	c.u64(uint64(len(s)))
	if len(s) <= len(c.sbuf) {
		n := copy(c.sbuf[:], s)
		c.h.Write(c.sbuf[:n])
		return
	}
	c.h.Write([]byte(s))
}

// floats appends a length-prefixed float64 slice.
func (c *canon) floats(xs []float64) {
	c.u64(uint64(len(xs)))
	for _, x := range xs {
		c.f64(x)
	}
}

// commHomogeneous appends a Communication Homogeneous platform from its
// raw wire slices — the byte stream is identical to the test oracle
// canon.platform on the constructed object, so wire-computed and
// object-computed keys agree.
func (c *canon) commHomogeneous(speeds []float64, bandwidth float64) {
	c.u64(uint64(platform.CommHomogeneous))
	c.floats(speeds)
	c.f64(bandwidth)
}

// fullyHeterogeneous appends a fully heterogeneous platform from its raw
// wire slices, byte-identical to canon.platform on the constructed
// object.
// Diagonal cells hash as 0 no matter what the request put there: the
// constructor ignores them, so two requests differing only on the
// diagonal describe the same platform and must share a key. Every
// off-diagonal cell feeds the digest, so two platforms differing in one
// link bandwidth can never collide into one cache entry. Rows and cells
// are length-prefixed, so a malformed link matrix (rejected later by the
// constructor) cannot alias a valid platform's stream.
func (c *canon) fullyHeterogeneous(speeds []float64, links [][]float64) {
	c.u64(uint64(platform.FullyHeterogeneous))
	c.floats(speeds)
	c.u64(uint64(len(links)))
	for u, row := range links {
		c.u64(uint64(len(row)))
		for v, b := range row {
			if u == v {
				c.f64(0)
			} else {
				c.f64(b)
			}
		}
	}
}

// wirePlatform appends a platform from its raw wire fields, discriminated
// by the (already validated) kind tag. An empty tag defaults to
// comm-homogeneous, matching platform.UnmarshalJSON.
func (c *canon) wirePlatform(kind string, speeds []float64, bandwidth float64, links [][]float64) {
	if kind == platform.FullyHeterogeneous.String() {
		c.fullyHeterogeneous(speeds, links)
		return
	}
	c.commHomogeneous(speeds, bandwidth)
}

// key finalises the digest and returns the canon to the pool. The digest
// stages through the canon's own array: summing into a local would make
// it escape and cost the hot path an allocation per key.
func (c *canon) key() cache.Key {
	c.h.Sum(c.sum[:0])
	k := cache.Key(c.sum)
	canonPool.Put(c)
	return k
}

// solveKeyWire digests one /v1/solve request straight from its decoded
// wire form. mode is already normalised by validation, so "H1" and "h1"
// hash identically; the platform kind tag is already validated, so the
// stream is discriminated by a known kind before the cache is consulted.
func solveKeyWire(objective portfolio.Objective, mode string, bound float64, works, deltas []float64, plat *platformWire) cache.Key {
	c := newCanon("solve")
	c.u64(uint64(objective))
	c.str(mode)
	c.f64(bound)
	c.floats(works)
	c.floats(deltas)
	c.wirePlatform(plat.Kind, plat.Speeds, plat.Bandwidth, plat.Links)
	return c.key()
}

// sweepKeyWire digests one /v1/sweep request from its wire form.
func sweepKeyWire(points int, works, deltas []float64, plat *platformWire) cache.Key {
	c := newCanon("sweep")
	c.u64(uint64(points))
	c.floats(works)
	c.floats(deltas)
	c.wirePlatform(plat.Kind, plat.Speeds, plat.Bandwidth, plat.Links)
	return c.key()
}

// batchKeyWire digests one /v1/batch request straight from its decoded
// wire form. Worker count is deliberately excluded: the batch engine
// guarantees results identical for any worker count, so scheduling knobs
// must not fragment the cache. It must produce the same key as the test
// oracle batchKey on the constructed objects, so the primed batch hot
// path can answer from the cache without materialising a single domain
// object.
func batchKeyWire(opts portfolio.BatchOptions, instances []instanceWire) cache.Key {
	c := newCanon("batch")
	c.u64(uint64(opts.Objective))
	c.f64(opts.Bound)
	c.u64(boolBit(opts.RelativeBound))
	c.u64(boolBit(opts.Exact))
	c.u64(uint64(len(instances)))
	for i := range instances {
		in := &instances[i]
		c.floats(in.Pipeline.Works)
		c.floats(in.Pipeline.Deltas)
		c.wirePlatform(in.Platform.Kind, in.Platform.Speeds, in.Platform.Bandwidth, in.Platform.Links)
	}
	return c.key()
}

// platformKeyWire digests a platform alone — the fingerprint the batch
// miss path dedups platforms by, so instances naming the same platform
// share one constructed object (and therefore one evaluator-table group
// in the grouped batch lane).
func platformKeyWire(pw *platformWire) cache.Key {
	c := newCanon("platform")
	c.wirePlatform(pw.Kind, pw.Speeds, pw.Bandwidth, pw.Links)
	return c.key()
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
