package thermal

// PoolCounts returns how many Acquire calls the idle pool has served with
// an idle model (hits) and how many built a new one (misses).
func PoolCounts() (hits, misses int64) {
	modelPool.Lock()
	defer modelPool.Unlock()
	return modelPool.hits, modelPool.misses
}
