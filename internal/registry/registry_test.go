package registry

import (
	"reflect"
	"testing"
)

func TestSet(t *testing.T) {
	s := New[int]("pkg", "widget", "b")
	s.Add("b", 2)
	s.Add("a", 1)
	if got := s.Names(); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("Names() = %v, want registration order", got)
	}
	s.Names()[0] = "x"
	if s.Names()[0] != "b" {
		t.Fatal("Names() shares the set's slice")
	}
	if v, err := s.Get(""); v != 2 || err != nil {
		t.Errorf(`Get("") = %v, %v; want the default`, v, err)
	}
	if v := s.Must("a"); v != 1 {
		t.Errorf(`Must("a") = %v`, v)
	}
	if !s.Has("") || !s.Has("a") || s.Has("c") {
		t.Error("Has misclassifies")
	}
	_, err := s.Get("c")
	if want := `pkg: unknown widget "c" (have [b a])`; err == nil || err.Error() != want {
		t.Errorf("unknown name: %v, want %q", err, want)
	}
}

func TestSetPanics(t *testing.T) {
	for name, f := range map[string]func(s *Set[int]){
		"empty name":     func(s *Set[int]) { s.Add("", 0) },
		"duplicate name": func(s *Set[int]) { s.Add("a", 1) },
		"unknown Must":   func(s *Set[int]) { s.Must("z") },
	} {
		s := New[int]("pkg", "widget", "a")
		s.Add("a", 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f(s)
		}()
	}
}
