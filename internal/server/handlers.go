// The HTTP edge of the /v1 API: decode (bounded bodies), dispatch to the
// service layer, encode (uniform JSON, uniform error envelope). No
// resolution semantics live here.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// decodeJSON reads a bounded request body into dst, mapping oversized and
// malformed bodies onto their stable error codes. Unknown fields are
// rejected so schema typos fail loudly instead of silently selecting
// defaults. A body holds one JSON value: anything after it but whitespace —
// a second value, or stray bytes — is malformed too, rather than dropped.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			if next == nil {
				next = errors.New("a second JSON value")
			}
			err = fmt.Errorf("data after the JSON value: %w", next)
		}
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{status: http.StatusRequestEntityTooLarge, code: CodeBodyTooLarge,
				msg: "request body exceeds the server limit"}
		}
		return badRequest("malformed request body: %v", err)
	}
	return nil
}

// writeJSON encodes one response body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.opts.Logger.Error("response encode failed", "err", err)
	}
}

// writeError emits the uniform error envelope.
func (s *Server) writeError(w http.ResponseWriter, aerr *apiError) {
	s.writeJSON(w, aerr.status, ErrorEnvelope{Error: ErrorBody{Code: aerr.code, Message: aerr.msg}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Pairs: s.reg.Len()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		s.writeError(w, &apiError{status: http.StatusServiceUnavailable, code: CodeShuttingDown,
			msg: "server is draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{Status: "ready", Pairs: s.reg.Len()})
}

// handleLoadPair starts (or joins) an asynchronous pair build. 202 with
// status "building" on a fresh build, 200 with the current state when the ID
// was already registered — the singleflight answer.
func (s *Server) handleLoadPair(w http.ResponseWriter, r *http.Request) {
	var req LoadPairRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	p, created, err := s.reg.Load(req)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	s.writeJSON(w, status, s.reg.Info(p))
}

func (s *Server) handleListPairs(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, ListPairsResponse{Pairs: s.reg.List()})
}

func (s *Server) handleGetPair(w http.ResponseWriter, r *http.Request) {
	p, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, errPairNotFound(r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, s.reg.Info(p))
}

func (s *Server) handleDeletePair(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Delete(r.PathValue("id")) {
		s.writeError(w, errPairNotFound(r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	p, aerr := s.acquire(w, r)
	if aerr != nil {
		return
	}
	defer p.Release()
	resp, aerr := s.query(r.Context(), p, &req)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req ResolveRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	p, aerr := s.acquire(w, r)
	if aerr != nil {
		return
	}
	defer p.Release()
	resp, aerr := s.resolve(r.Context(), p, &req)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, badRequest("invalid limit %q", v))
			return
		}
		limit = n
	}
	p, aerr := s.acquire(w, r)
	if aerr != nil {
		return
	}
	defer p.Release()
	resp, aerr := s.entities(p, limit)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// acquire takes a reference on the request's pair, or answers the request
// with the reason it cannot. The handler holds the reference until its
// response is written: the response's strings alias the pair's substrate,
// which for a snapshot-backed pair is a mapping that Delete would otherwise
// be free to unmap.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) (*Pair, *apiError) {
	p, aerr := s.reg.Acquire(r.PathValue("id"))
	if aerr != nil {
		s.writeError(w, aerr)
	}
	return p, aerr
}
