package cvmfs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Server exposes a Repository over HTTP using a layout modelled on real
// CVMFS stratum servers:
//
//	GET /cvmfs/<name>/.cvmfspublished   → JSON {root, revision}
//	GET /cvmfs/<name>/data/<hash>       → raw object bytes
//
// Because objects are immutable and named by content, every data response
// carries aggressive cache headers; this is what lets squid proxies absorb
// nearly all repository load.
type Server struct {
	repo *Repository
}

// NewServer returns an HTTP server for repo.
func NewServer(repo *Repository) *Server { return &Server{repo: repo} }

// Published is the body of the .cvmfspublished manifest.
type Published struct {
	Root     string `json:"root"`
	Revision int    `json:"revision"`
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	prefix := "/cvmfs/" + s.repo.Name() + "/"
	if !strings.HasPrefix(r.URL.Path, prefix) {
		http.NotFound(w, r)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, prefix)
	switch {
	case rest == ".cvmfspublished":
		// The manifest is the one mutable resource; it must not be cached.
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(Published{Root: s.repo.RootHash(), Revision: s.repo.Revision()})
	case strings.HasPrefix(rest, "data/"):
		hash := strings.TrimPrefix(rest, "data/")
		data, err := s.repo.Object(hash)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		// Immutable: cacheable forever.
		w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		if r.Method == http.MethodHead {
			return
		}
		w.Write(data)
	default:
		http.NotFound(w, r)
	}
}
