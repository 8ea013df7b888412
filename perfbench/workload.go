package main

import (
	"fmt"
	"math/rand"

	"github.com/ido-nvm/ido/internal/server"
)

// Op kinds in a generated stream.
const (
	opGet uint8 = iota
	opSet
	opDel
)

var opNames = [...]string{"get", "set", "del"}

// workload is one traffic mix over the served KV system.
type workload struct {
	name  string
	why   string
	proto server.Proto
	keys  uint64 // key space, split evenly across the connections
	// prefillEvery: key k is prefilled when k%prefillEvery == 0
	// (1 = every key).
	prefillEvery uint64
	setPct       int
	delPct       int
	zipf         float64 // key skew exponent (> 1), 0 = uniform
	maxItems     int     // per-shard LRU watermark, 0 = no eviction
	repl         bool    // semi-synchronous hot standby, prefill through the server
}

var workloads = []*workload{
	{
		name:  "mc-read-zipf",
		why:   "memcached's production shape: 90% GET on the lock-free fast lane, Zipf 1.1 over 65,536 prefilled keys; loads server and kv.GetFast, leaves commit pipelines nearly idle",
		proto: server.ProtoMemcache, keys: 1 << 16, prefillEvery: 1,
		setPct: 10, zipf: 1.1,
	},
	{
		name:  "mc-write-evict",
		why:   "Fig. 5c mix (40% SET, 20% DELETE) uniform over twice the cache: every mutation crosses a shard pipeline, runs a FASE, pays a commit fence, allocates and evicts",
		proto: server.ProtoMemcache, keys: 1 << 17, prefillEvery: 2,
		setPct: 40, delPct: 20, maxItems: 4096,
	},
	{
		name:  "resp-repl-zipf",
		why:   "RESP over kv/redis, 70% SET / 10% DEL Zipf 1.1 with a semi-synchronous hot standby: the only mix that loads replica, the RESP parser and a hot shard",
		proto: server.ProtoRESP, keys: 1 << 16, prefillEvery: 1,
		setPct: 70, delPct: 10, zipf: 1.1, repl: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// prefilled reports whether global key k is stored before the run.
func (w *workload) prefilled(k uint64) bool { return k%w.prefillEvery == 0 }

// streamLen is the length of each connection's generated op stream; a
// run that outlasts it wraps around.
const streamLen = 1 << 20

// packOp encodes one op of a stream: kind in the top two bits, the
// connection-local key index below.
func packOp(kind uint8, idx uint32) uint32 { return uint32(kind)<<30 | idx }

func unpackOp(op uint32) (uint8, uint32) { return uint8(op >> 30), op & (1<<30 - 1) }

// genStream draws n ops of w's mix over a connection-local key range of
// size perConn. The stream depends only on (seed, stream id).
func (w *workload) genStream(seed int64, id int, perConn uint64, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id)*104729 + 1))
	var zipf *rand.Zipf
	if w.zipf > 1 {
		zipf = rand.NewZipf(rng, w.zipf, 1, perConn-1)
	}
	out := make([]uint32, n)
	for i := range out {
		var idx uint64
		if zipf != nil {
			idx = zipf.Uint64()
		} else {
			idx = uint64(rng.Int63n(int64(perConn)))
		}
		kind := opGet
		switch roll := rng.Intn(100); {
		case roll < w.setPct:
			kind = opSet
		case roll < w.setPct+w.delPct:
			kind = opDel
		}
		out[i] = packOp(kind, uint32(idx))
	}
	return out
}
