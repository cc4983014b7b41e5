package thermal

import (
	"runtime"
	"slices"
	"sync"
)

// poolKeysMax bounds the construction keys the idle pool holds. A placement
// flow or a worker pool solves one stack at one grid, so a few keys cover the
// working set, while each new interposer size or grid a long-lived service
// sees would otherwise pin idle models forever. The oldest key is evicted,
// as the pattern cache and the symbolic-hierarchy cache of package sparse
// evict theirs.
const poolKeysMax = 4

// modelPool holds idle models, per construction key, for Acquire to hand
// out again. Each key holds at most GOMAXPROCS models, the most recently
// released on top; a placement fan-out runs at most GOMAXPROCS models of one
// key at once, so the pool never keeps more than a flow had alive.
var modelPool struct {
	sync.Mutex
	keys         []poolEntry // oldest key first
	hits, misses int64       // Acquire calls served from the pool, and not
}

// poolEntry is one key's stack of idle models.
type poolEntry struct {
	key  modelKey
	idle []*Model // last released last
}

// Acquire returns a model for an interposer of the given dimensions (mm),
// taking the most recently released idle model built with the same options
// (everything but Counters, Obs and Inject, which the model takes over from
// opt) or building a new one. A pooled model is reset cold (ResetCold), so
// every solve on it equals the same solve on a new model in bits and in
// counters. Hand the model back with Release when done.
func Acquire(widthMM, heightMM float64, opt Options) (*Model, error) {
	k, err := newModelKey(widthMM, heightMM, opt)
	if err != nil {
		return nil, err
	}
	if m := takeIdle(&k); m != nil {
		m.ResetCold(opt.Counters, opt.Obs, opt.Inject)
		return m, nil
	}
	return newModel(k, opt), nil
}

// takeIdle pops the top idle model of key k, or returns nil.
func takeIdle(k *modelKey) *Model {
	p := &modelPool
	p.Lock()
	defer p.Unlock()
	i := slices.IndexFunc(p.keys, func(e poolEntry) bool { return e.key.equal(k) })
	if i < 0 {
		p.misses++
		return nil
	}
	e := &p.keys[i]
	m := e.idle[len(e.idle)-1]
	e.idle = slices.Delete(e.idle, len(e.idle)-1, len(e.idle))
	if len(e.idle) == 0 {
		p.keys = slices.Delete(p.keys, i, i+1)
	}
	m.idle = false
	p.hits++
	return m
}

// Release hands m back to the idle pool for a later Acquire of the same
// construction. A model whose last steady-state solve failed is dropped
// instead, as are a nil model and one already released; the pool keeps no
// reference to the Counters, Observer or Injector of its last owner. The
// caller must not use m afterwards.
func (m *Model) Release() {
	if m == nil || m.failed {
		return
	}
	p := &modelPool
	p.Lock()
	defer p.Unlock()
	if m.idle {
		return
	}
	m.idle = true
	m.ctr, m.obs, m.inject = nil, nil, nil
	i := slices.IndexFunc(p.keys, func(e poolEntry) bool { return e.key.equal(&m.modelKey) })
	if i < 0 {
		if len(p.keys) == poolKeysMax {
			p.keys = slices.Delete(p.keys, 0, 1)
		}
		p.keys = append(p.keys, poolEntry{key: m.modelKey})
		i = len(p.keys) - 1
	}
	e := &p.keys[i]
	e.idle = append(e.idle, m)
	if over := len(e.idle) - runtime.GOMAXPROCS(0); over > 0 {
		e.idle = slices.Delete(e.idle, 0, over) // drop the oldest
	}
}
