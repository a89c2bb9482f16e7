package stream

import "sync"

type Engine struct {
	mu   sync.Mutex
	view int
}

// CurrentView is read-safe and honest: no mutex.
func (e *Engine) CurrentView() int { return e.view }

// Stats is in the read-safe set but locks — rule 2 catches the lie.
func (e *Engine) Stats() int { // want `read-safe method Stats reaches an engine-mutex acquisition in Stats`
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.view
}

// Mutate is a legitimate write-path method; it only becomes a finding when a
// GET handler reaches it.
func (e *Engine) Mutate() {
	e.mu.Lock() // want `engine mutex acquired on the GET read path \(reachable from handler handleBad\)`
	e.view++
	e.mu.Unlock()
}

// Rebuild exists so the HandleFunc-literal registration form has its own
// target (one GET root per locking method keeps the expected diagnostics
// deterministic).
func (e *Engine) Rebuild() {
	e.mu.Lock() // want `engine mutex acquired on the GET read path \(reachable from handler handleLive\)`
	e.view = 0
	e.mu.Unlock()
}
