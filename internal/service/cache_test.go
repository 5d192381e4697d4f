package service

import (
	"fmt"
	"testing"

	"voltnoise/internal/service/store"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(store.NewMemory(2))
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: now b is the LRU entry
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Errorf("a = %q, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Errorf("c = %q, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestCacheCounters(t *testing.T) {
	c := NewCache(store.NewMemory(4))
	c.Get("x")
	c.Put("x", []byte("X"))
	c.Get("x")
	c.Get("x")
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache(store.NewMemory(2))
	c.Put("a", []byte("old"))
	c.Put("a", []byte("new"))
	if v, _ := c.Get("a"); string(v) != "new" {
		t.Errorf("a = %q", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(store.NewMemory(-1))
	c.Put("a", []byte("A"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache stored a value")
	}
}

func TestCacheCapacityOne(t *testing.T) {
	c := NewCache(store.NewMemory(1))
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
	if _, ok := c.Get("k4"); !ok {
		t.Error("latest entry missing")
	}
}
