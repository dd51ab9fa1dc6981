package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
)

// reportRequest is the POST /v1/report body.
type reportRequest struct {
	Zone    string   `json:"zone"`
	Reports []Report `json:"reports"`
}

// Handler returns the service's HTTP surface.
//
// The frozen v1 routes (responses byte-identical across releases):
//
//	POST /v1/report              {"zone": "z0", "reports": [{"link": 0, "rss": -41.5}, ...]}
//	GET  /v1/zones               sorted zone IDs
//	GET  /v1/zones/{id}/position latest estimate for one zone
//	GET  /v1/healthz             liveness plus per-zone counters
//
// The v2 routes add runtime zone lifecycle, a streaming watch, and
// typed error codes; see http_v2.go and docs/API.md.
//
// Routing is matched manually so the handler behaves identically on every
// supported Go version.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/zones", s.handleZoneList)
	mux.HandleFunc("/v1/zones/", s.handleZone)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v2/report", s.handleReportV2)
	mux.HandleFunc("/v2/zones", s.handleZoneListV2)
	mux.HandleFunc("/v2/zones/", s.handleZoneV2)
	mux.HandleFunc("/v2/healthz", s.handleHealthzV2)
	return mux
}

// maxReportBody bounds the POST /v1/report request body (1 MiB holds
// tens of thousands of reports — far beyond one sampling round).
const maxReportBody = 1 << 20

// handleReport is the frozen /v1 ingest handler.
//
//tafloc:legacy-http the /v1 surface predates the taflocerr taxonomy and its status codes and bodies are pinned byte-identical by fixture tests; new handlers go on /v2 and write errors through errorV2.
func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req reportRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReportBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	err := s.Ingest(req.Zone, req.Reports)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, map[string]any{"accepted": len(req.Reports)})
	case errors.Is(err, ErrUnknownZone):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

// handleZoneList is the frozen /v1 zone index handler.
//
//tafloc:legacy-http pinned /v1 wire format; see handleReport.
func (s *Service) handleZoneList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"zones": s.Zones()})
}

// handleZone is the frozen /v1 position handler.
//
//tafloc:legacy-http pinned /v1 wire format; see handleReport.
func (s *Service) handleZone(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/zones/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || sub != "position" {
		httpError(w, http.StatusNotFound, "want /v1/zones/{id}/position")
		return
	}
	if !s.zoneExists(id) {
		httpError(w, http.StatusNotFound, ErrUnknownZone.Error())
		return
	}
	e, ok := s.Position(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no estimate published yet")
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// handleHealthz is the frozen /v1 health handler.
//
//tafloc:legacy-http pinned /v1 wire format; see handleReport.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"zones":    len(s.Zones()),
		"uptime_s": s.Uptime().Seconds(),
		"stats":    s.Stats(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
