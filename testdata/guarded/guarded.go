// Package guarded is the testdata of TestGuardedByWants: sibling-mutex
// annotations, cross-type annotations, caller-holds propagation, loop
// releases, goroutine spawns, escaped function values and the allow grammar.
package guarded

import "sync"

type S struct {
	mu sync.Mutex
	//cryptolint:guardedby mu
	n int
	m map[string]int //cryptolint:guardedby mu
}

// NewS is a constructor: pre-escape initialization is exempt.
func NewS() *S {
	return &S{n: 1, m: map[string]int{}}
}

func (s *S) Good() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *S) GoodDefer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = 2
	s.m["k"] = s.n
}

func (s *S) BadPlain() {
	s.n++ // want `field n is guarded by S\.mu`
}

func (s *S) BadAfterUnlock() {
	s.mu.Lock()
	s.n = 1
	s.mu.Unlock()
	s.n = 2 // want `field n is guarded by S\.mu`
}

func (s *S) GoodEarlyReturn(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.n++
	s.mu.Unlock()
}

// BadLoopRelease: the first iteration holds the lock, every later one does
// not — the loop fixpoint must catch it.
func (s *S) BadLoopRelease() {
	s.mu.Lock()
	for i := 0; i < 3; i++ {
		s.n++ // want `field n is guarded by S\.mu`
		s.mu.Unlock()
	}
}

// bump is only ever called with s.mu held: caller-holds propagation clears
// its unlocked access.
func (s *S) bump() {
	s.n++
}

func (s *S) Holder() {
	s.mu.Lock()
	s.bump()
	s.mu.Unlock()
}

// leak has one unheld call site, so its access is flagged.
func (s *S) leak() {
	s.n++ // want `field n is guarded by S\.mu`
}

func (s *S) CallsLeakUnheld() {
	s.leak()
}

// BadSpawn: a goroutine never inherits the spawner's lock.
func (s *S) BadSpawn() {
	s.mu.Lock()
	go func() {
		s.n++ // want `field n is guarded by S\.mu`
	}()
	s.mu.Unlock()
}

// escapee is called under the lock, but its value also escapes as a
// callback, so it can never be assumed caller-held.
func (s *S) escapee() {
	s.n++ // want `field n is guarded by S\.mu`
}

func (s *S) Register() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.escapee()
	return s.escapee
}

func (s *S) Allowed() {
	s.n++ //cryptolint:allow guardedby single-writer before the value is shared
}

type R struct {
	mu sync.RWMutex
	//cryptolint:guardedby mu
	v int
}

// Read: an RLock counts as held.
func (r *R) Read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.v
}

func (r *R) BadRead() int {
	return r.v // want `field v is guarded by R\.mu`
}

// Owner/Inner exercise the <Type>.<mu> cross-struct form.
type Owner struct {
	mu   sync.Mutex
	data *Inner
}

type Inner struct {
	//cryptolint:guardedby Owner.mu
	v int
}

func (o *Owner) Touch() {
	o.mu.Lock()
	o.data.v++
	o.mu.Unlock()
}

func (i *Inner) bad() {
	i.v++ // want `field v is guarded by Owner\.mu`
}

// BuildInner is not named New*: its composite-literal write is flagged.
func BuildInner() *Inner {
	return &Inner{v: 3} // want `field v is guarded by Owner\.mu`
}

type Broken struct {
	//cryptolint:guardedby nosuch
	x int // want `has no sync\.Mutex/RWMutex field "nosuch"`
}
