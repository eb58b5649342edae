package u64hash

import (
	"math/rand"
	"testing"
)

func TestMapI32AgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var m MapI32
	ref := make(map[uint64]int32)
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Int63n(3000)) + 1
		if rng.Intn(2) == 0 {
			v := int32(rng.Intn(100))
			m.Put(k, v)
			ref[k] = v
		} else {
			got, ok := m.Get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("Get(%d) = %v,%v want %v,%v", k, got, ok, want, wok)
			}
		}
	}
	// Zero values round-trip (presence is keyed on the slot, not the value).
	m.Put(999999, 0)
	if v, ok := m.Get(999999); !ok || v != 0 {
		t.Fatal("zero value not stored")
	}
	// Reset clears the filled slots, and the map is empty after.
	if m.Len() != len(ref)+1 {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref)+1)
	}
	m.Reset()
	for k := range ref {
		if _, ok := m.Get(k); ok {
			t.Fatalf("key %d survived Reset", k)
		}
	}
	for _, k := range m.keys {
		if k != 0 {
			t.Fatal("Reset left a filled slot")
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
}
