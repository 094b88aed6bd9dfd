// Package registry is the one implementation behind the simulator's
// plug-in seams: the line codecs, the prefetch engines and the
// reference sources each keep a Set of their kinds. A Set is filled from
// its package's init and only read afterwards, so lookups need no lock.
package registry

import "fmt"

// Set maps unique names to the implementations of one seam and keeps
// them in registration order, so Names is the same in every process.
type Set[T any] struct {
	prefix, noun, def string
	names             []string
	byName            map[string]T
}

// New returns an empty Set in which "" names def. An unknown name's
// error reads `<prefix>: unknown <noun> "<name>" (have [<names>])`.
func New[T any](prefix, noun, def string) *Set[T] {
	return &Set[T]{prefix: prefix, noun: noun, def: def, byName: map[string]T{}}
}

// Add registers v under name. An empty or duplicate name panics.
func (s *Set[T]) Add(name string, v T) {
	if name == "" {
		panic(fmt.Sprintf("%s: %s registered without a name", s.prefix, s.noun))
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("%s: duplicate %s %q", s.prefix, s.noun, name))
	}
	s.names = append(s.names, name)
	s.byName[name] = v
}

// Names lists the registered names in registration order.
func (s *Set[T]) Names() []string { return append([]string(nil), s.names...) }

// Has reports whether name, with "" meaning the default, is registered.
func (s *Set[T]) Has(name string) bool {
	_, err := s.Get(name)
	return err == nil
}

// Get returns what name is registered under; "" means the default.
func (s *Set[T]) Get(name string) (T, error) {
	if name == "" {
		name = s.def
	}
	v, ok := s.byName[name]
	if !ok {
		return v, fmt.Errorf("%s: unknown %s %q (have %v)", s.prefix, s.noun, name, s.names)
	}
	return v, nil
}

// Must is Get for names already validated: an unknown name panics.
func (s *Set[T]) Must(name string) T {
	v, err := s.Get(name)
	if err != nil {
		panic(err)
	}
	return v
}
