// Package lib is the scan fixture: one exported identifier of each kind
// the scan must report or must keep.
package lib

// Dead has no caller at all: reported.
func Dead() int { return 1 }

// TestOnly is called only from lib_test.go: reported.
func TestOnly() int { return 2 }

// Used is called from cmd/app: kept.
func Used() int { return 3 }

// Pinger is the named interface cmd/app calls Ping through.
type Pinger interface{ Ping() string }

// Named's Ping is only ever called through Pinger: kept.
type Named struct{}

func (Named) Ping() string { return "ping" }

// Literal's Poke is reached only through an interface-literal type
// assertion in cmd/app: kept.
type Literal struct{}

func (*Literal) Poke() {}

// Status's String and Error are only called by fmt and errors: kept.
type Status int

func (Status) String() string { return "status" }

func (Status) Error() string { return "bad status" }
