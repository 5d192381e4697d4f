package service

import (
	"sync"

	"voltnoise/internal/service/store"
)

// Cache fronts a pluggable content-addressed result store
// (internal/service/store) with the service's operational semantics:
// hit/miss/error accounting for /metrics and graceful degradation —
// a backend failure is recorded and reported to /readyz as degraded,
// but Get answers miss (the study recomputes) and Put returns
// quietly (the study still succeeds). A cache hit serves exactly the
// bytes a fresh computation would have produced (the studies are
// deterministic).
type Cache struct {
	backend store.Store

	mu        sync.Mutex
	hits      int64
	misses    int64
	getErrors int64
	putErrors int64
	// lastGetErr/lastPutErr hold the most recent failure of each kind,
	// cleared by the next success — so /readyz degrades while the
	// backend is sick and recovers when it heals.
	lastGetErr string
	lastPutErr string
}

// NewCache builds a cache over a store backend; over
// store.NewMemory(0) every lookup misses and Put is a no-op.
func NewCache(backend store.Store) *Cache {
	return &Cache{backend: backend}
}

// Get returns the cached bytes for the hash, recording a hit or miss.
// A backend error degrades to a miss.
func (c *Cache) Get(hash string) ([]byte, bool) {
	v, ok, err := c.backend.Get(hash)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.getErrors++
		c.lastGetErr = err.Error()
	} else {
		c.lastGetErr = ""
	}
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return v, true
}

// Put stores the bytes under the hash. The caller must not mutate
// value afterwards. A backend error is recorded, never surfaced: the
// result simply is not cached.
func (c *Cache) Put(hash string, value []byte) {
	err := c.backend.Put(hash, value)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.putErrors++
		c.lastPutErr = err.Error()
		return
	}
	c.lastPutErr = ""
}

// Len returns the number of cached results.
func (c *Cache) Len() int { return c.backend.Len() }

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Errors returns the cumulative backend failure counts.
func (c *Cache) Errors() (getErrors, putErrors int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getErrors, c.putErrors
}

// Health reports whether the backend's most recent operations
// succeeded; when degraded, reason names the failure.
func (c *Cache) Health() (ok bool, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.lastPutErr != "":
		return false, "store writes failing: " + c.lastPutErr
	case c.lastGetErr != "":
		return false, "store reads failing: " + c.lastGetErr
	}
	return true, ""
}

// Close releases the backend.
func (c *Cache) Close() error { return c.backend.Close() }
