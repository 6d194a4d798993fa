package core

import (
	"context"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/storage"
)

// TestStorageStatsGauges checks the service-level byte gauges: after a
// build-then-reuse instance the resident encoded footprint is the store's
// real (compressed) payload size, strictly below the logical row bytes the
// metadata service advertises, and the decoded hot-view cache reports the
// reuse traffic it served.
func TestStorageStatsGauges(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), specB("b1", 1)); err != nil {
		t.Fatal(err)
	}

	st := s.Snapshot().Storage
	if st.Views != s.Store.Len() || st.Views == 0 {
		t.Fatalf("Views gauge = %d, store has %d", st.Views, s.Store.Len())
	}
	if st.ResidentEncodedBytes != s.Store.TotalBytes() || st.ResidentEncodedBytes <= 0 {
		t.Fatalf("ResidentEncodedBytes = %d", st.ResidentEncodedBytes)
	}
	var logical int64
	for _, v := range s.Meta.Views() {
		if v.EncodedBytes <= 0 {
			t.Fatalf("view %s registered without encoded size", v.Path)
		}
		if v.EncodedBytes >= v.Bytes {
			t.Errorf("view %s: encoded %d not below logical %d", v.Path, v.EncodedBytes, v.Bytes)
		}
		logical += v.Bytes
	}
	if st.ResidentEncodedBytes >= logical {
		t.Errorf("resident encoded %d should undercut logical %d", st.ResidentEncodedBytes, logical)
	}
	// The reuse job consumed the view: the cache saw the traffic and holds
	// the decoded rows.
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Error("cache counters never moved during a build-and-reuse instance")
	}
	if st.Cache.Entries == 0 || st.Cache.Bytes == 0 {
		t.Errorf("cache gauges empty after reuse: %+v", st.Cache)
	}
}

// TestConfigCacheBytes verifies the service-level cache knob: zero keeps
// the store default, negative disables, positive resizes.
func TestConfigCacheBytes(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	if got := NewService(cat, Config{}).Store.CacheBudget(); got != storage.DefaultCacheBudget {
		t.Errorf("default budget = %d", got)
	}
	if got := NewService(cat, Config{CacheBytes: 1 << 20}).Store.CacheBudget(); got != 1<<20 {
		t.Errorf("explicit budget = %d", got)
	}
	s := NewService(cat, Config{Enabled: true, CacheBytes: -1})
	if s.Store.CacheBudget() >= 0 {
		t.Errorf("negative CacheBytes must disable the cache, budget = %d", s.Store.CacheBudget())
	}
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	for _, spec := range []JobSpec{specA("a1", 1), specB("b1", 1)} {
		if _, err := s.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Snapshot().Storage; st.Cache.Entries != 0 {
		t.Errorf("disabled cache admitted entries: %+v", st.Cache)
	}
}
