// Package keyed is the one reuse mechanism of the engines: a bounded set
// of built assemblies — replica harnesses, SAN models with their
// simulators — keyed by everything their construction read. A campaign
// worker owns one set per kind of assembly; an assembly is built when
// its shape is first seen by the worker, handed back (to be rewound by
// its owner) for every later point of that shape, and dropped when the
// set is at capacity or when the run that owns the set returns.
//
// A set is not safe for concurrent use: the worker pool guarantees that
// two units with the same worker index never overlap, which is what
// makes a per-worker set lock-free.
package keyed

import "reflect"

// capacity bounds every set: a sweep over thousands of distinct shapes
// (a 10k-point t_send grid) must not hold thousands of half-megabyte
// models. Eight covers the paper's grids — n = 3, 5, 7 across the run
// classes — with room to spare; beyond it the least recently used
// assembly goes.
const capacity = 8

// Set holds at most `capacity` values of type V, each built for a key of
// type K. Keys are compared with reflect.DeepEqual — shapes carry slices
// and distribution values, so == is not available. The zero value is an
// empty set.
type Set[K, V any] struct {
	entries []entry[K, V] // most recently used first
}

type entry[K, V any] struct {
	key K
	val V
}

// Get returns the value retained for key, building it with build(key)
// when the set holds none. The returned value becomes the most recently
// used; when a build would exceed the capacity the least recently used
// value is dropped first. A failed build retains nothing.
func (s *Set[K, V]) Get(key K, build func(K) (V, error)) (V, error) {
	for i := range s.entries {
		if reflect.DeepEqual(&s.entries[i].key, &key) {
			hit := s.entries[i]
			copy(s.entries[1:i+1], s.entries[:i])
			s.entries[0] = hit
			return hit.val, nil
		}
	}
	val, err := build(key)
	if err != nil {
		return val, err
	}
	if len(s.entries) < capacity {
		s.entries = append(s.entries, entry[K, V]{})
	}
	copy(s.entries[1:], s.entries)
	s.entries[0] = entry[K, V]{key: key, val: val}
	return val, nil
}

// Len reports how many values the set retains.
func (s *Set[K, V]) Len() int { return len(s.entries) }
