package metadata

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// API is the protocol surface the compiler, optimizer, and job manager use
// (Figure 9). The in-process Service implements it directly; Client
// implements it over HTTP against a Handler-wrapped Service.
type API interface {
	RelevantViews(vc string, jobTags []string) []Annotation
	Annotation(normSig string) (Annotation, bool)
	ProposeMaterialize(normSig, preciseSig, jobID string, now int64) bool
	ReportMaterialized(v ViewInfo)
	AbortMaterialize(preciseSig, jobID string)
	LookupView(preciseSig string) (ViewInfo, bool)
}

var _ API = (*Service)(nil)
var _ API = (*Client)(nil)

// Handler exposes a Service over HTTP with a JSON protocol. It is the
// deployment shape of the production metadata service (an RPC service in
// front of a consistent store).
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /relevant", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			VC   string
			Tags []string
		}
		if !decode(w, r, &req) {
			return
		}
		reply(w, s.RelevantViews(req.VC, req.Tags))
	})
	mux.HandleFunc("POST /annotation", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ NormSig string }
		if !decode(w, r, &req) {
			return
		}
		a, ok := s.Annotation(req.NormSig)
		reply(w, struct {
			OK  bool
			Ann Annotation
		}{ok, a})
	})
	mux.HandleFunc("POST /propose", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			NormSig, PreciseSig, JobID string
			Now                        int64
		}
		if !decode(w, r, &req) {
			return
		}
		ok := s.ProposeMaterialize(req.NormSig, req.PreciseSig, req.JobID, req.Now)
		reply(w, struct{ OK bool }{ok})
	})
	mux.HandleFunc("POST /report", func(w http.ResponseWriter, r *http.Request) {
		var v ViewInfo
		if !decode(w, r, &v) {
			return
		}
		s.ReportMaterialized(v)
		reply(w, struct{}{})
	})
	mux.HandleFunc("POST /abort", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ PreciseSig, JobID string }
		if !decode(w, r, &req) {
			return
		}
		s.AbortMaterialize(req.PreciseSig, req.JobID)
		reply(w, struct{}{})
	})
	mux.HandleFunc("POST /view", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ PreciseSig string }
		if !decode(w, r, &req) {
			return
		}
		v, ok := s.LookupView(req.PreciseSig)
		reply(w, struct {
			OK   bool
			View ViewInfo
		}{ok, v})
	})
	mux.HandleFunc("POST /load", func(w http.ResponseWriter, r *http.Request) {
		var anns []Annotation
		if !decode(w, r, &anns) {
			return
		}
		s.LoadAnalysis(anns)
		reply(w, struct{}{})
	})
	return mux
}

// maxRequestBytes bounds a request body. The largest request is an
// analyzer upload to /load; 8 MiB holds tens of thousands of annotations.
const maxRequestBytes = 8 << 20

// decode reads one JSON request body into dst. It answers 413 when the
// body passes maxRequestBytes and 400 when it is not valid JSON for dst;
// either way the handler returns before touching the service.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(dst)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), code)
	return false
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Client talks the Handler protocol. Errors are swallowed into negative
// replies: a job that cannot reach the metadata service simply runs
// without computation reuse, never fails (transparency requirement, §4).
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient}
}

func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.HTTP.Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("metadata: %s returned %s", path, r.Status)
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// RelevantViews implements API.
func (c *Client) RelevantViews(vc string, jobTags []string) []Annotation {
	var out []Annotation
	req := struct {
		VC   string
		Tags []string
	}{vc, jobTags}
	if err := c.post("/relevant", req, &out); err != nil {
		return nil
	}
	return out
}

// Annotation implements API.
func (c *Client) Annotation(normSig string) (Annotation, bool) {
	var resp struct {
		OK  bool
		Ann Annotation
	}
	if err := c.post("/annotation", struct{ NormSig string }{normSig}, &resp); err != nil {
		return Annotation{}, false
	}
	return resp.Ann, resp.OK
}

// ProposeMaterialize implements API.
func (c *Client) ProposeMaterialize(normSig, preciseSig, jobID string, now int64) bool {
	var resp struct{ OK bool }
	req := struct {
		NormSig, PreciseSig, JobID string
		Now                        int64
	}{normSig, preciseSig, jobID, now}
	if err := c.post("/propose", req, &resp); err != nil {
		return false
	}
	return resp.OK
}

// ReportMaterialized implements API.
func (c *Client) ReportMaterialized(v ViewInfo) {
	_ = c.post("/report", v, nil)
}

// AbortMaterialize implements API.
func (c *Client) AbortMaterialize(preciseSig, jobID string) {
	_ = c.post("/abort", struct{ PreciseSig, JobID string }{preciseSig, jobID}, nil)
}

// LookupView implements API.
func (c *Client) LookupView(preciseSig string) (ViewInfo, bool) {
	var resp struct {
		OK   bool
		View ViewInfo
	}
	if err := c.post("/view", struct{ PreciseSig string }{preciseSig}, &resp); err != nil {
		return ViewInfo{}, false
	}
	return resp.View, resp.OK
}

// LoadAnalysis pushes analyzer output to the remote service.
func (c *Client) LoadAnalysis(anns []Annotation) error {
	return c.post("/load", anns, nil)
}
