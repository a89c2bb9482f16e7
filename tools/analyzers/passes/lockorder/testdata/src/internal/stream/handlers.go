package stream

import "net/http"

type server struct{ eng *Engine }

func handle(pattern string, h func(http.ResponseWriter, *http.Request), methods ...string) {}

func (s *server) routes(mux *http.ServeMux) {
	handle("/view", s.handleOK, http.MethodGet)
	handle("/bad", s.handleBad, http.MethodGet)
	handle("/deep", s.handleDeep, http.MethodGet)
	handle("/write", s.handleWrite, http.MethodPost)
	mux.HandleFunc("GET /live", s.handleLive)
}

func (s *server) handleOK(w http.ResponseWriter, r *http.Request) {
	_ = s.eng.CurrentView()
}

func (s *server) handleBad(w http.ResponseWriter, r *http.Request) {
	s.eng.Mutate() // want `GET read path \(handler handleBad\) calls \(Engine\)\.Mutate`
}

// handleDeep reaches the mutex through a helper and a direct acquisition.
func (s *server) handleDeep(w http.ResponseWriter, r *http.Request) {
	s.lockHelper()
}

func (s *server) lockHelper() {
	s.eng.mu.Lock() // want `engine mutex acquired on the GET read path \(reachable from handler handleDeep\)`
	s.eng.mu.Unlock()
}

// handleWrite mutates too, but POST routes are the write path — no finding.
func (s *server) handleWrite(w http.ResponseWriter, r *http.Request) {
	s.eng.Mutate()
}

func (s *server) handleLive(w http.ResponseWriter, r *http.Request) {
	s.eng.Rebuild() // want `GET read path \(handler handleLive\) calls \(Engine\)\.Rebuild`
}
