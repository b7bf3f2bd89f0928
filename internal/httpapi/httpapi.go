// Package httpapi defines the one JSON error envelope every /v1/* route
// (query, ingest, replication, shard) speaks:
//
//	{"error": {"code": "invalid_argument", "message": "...", "details": {...}}}
//
// Codes are stable machine-readable strings (documented in README); the
// message is human prose; details carries optional structured context such
// as the failed shard index or the oldest retained LSN. The package also
// carries the client half — ReadError decodes an envelope (tolerating
// legacy plain-text bodies) into an *Error that callers can errors.As on.
package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Stable error codes carried in the envelope. One code per rejection class,
// not per route: clients switch on these, never on message text.
const (
	CodeInvalidArgument  = "invalid_argument"   // 400: malformed or out-of-range input
	CodeUnauthorized     = "unauthorized"       // 401: missing or invalid credential
	CodeForbidden        = "forbidden"          // 403: authenticated-but-denied, role mismatch, feature disabled
	CodeNotFound         = "not_found"          // 404: no such route or resource
	CodeMethodNotAllowed = "method_not_allowed" // 405: wrong HTTP verb
	CodeConflict         = "conflict"           // 409: state conflicts with the request (divergent WAL)
	CodeGone             = "gone"               // 410: resource existed but was truncated/expired (WAL tail)
	CodeUnprocessable    = "unprocessable"      // 422: well-formed input the engine cannot execute
	CodeInternal         = "internal"           // 500: unexpected server-side failure
	CodeUnavailable      = "unavailable"        // 503: temporarily unable (recovering, admission full, shard down)
	CodeTimeout          = "timeout"            // 504: deadline expired before the answer was complete
)

// CodeForStatus maps an HTTP status to its default envelope code; statuses
// without a dedicated code fall back to internal (5xx) or invalid_argument
// (4xx).
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeInvalidArgument
	case http.StatusUnauthorized:
		return CodeUnauthorized
	case http.StatusForbidden:
		return CodeForbidden
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusConflict:
		return CodeConflict
	case http.StatusGone:
		return CodeGone
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusGatewayTimeout:
		return CodeTimeout
	}
	if status >= 500 {
		return CodeInternal
	}
	return CodeInvalidArgument
}

// Detail is the inner object of the envelope.
type Detail struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// Envelope is the error response body.
type Envelope struct {
	Error Detail `json:"error"`
}

// WriteError writes the envelope with an explicit code. Extra fields land
// in details; a nil map is omitted.
func WriteError(w http.ResponseWriter, status int, code, message string, details map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(Envelope{Error: Detail{Code: code, Message: message, Details: details}})
}

// WriteStatusError writes the envelope with the status's default code.
func WriteStatusError(w http.ResponseWriter, status int, message string) {
	WriteError(w, status, CodeForStatus(status), message, nil)
}

// WriteJSON writes v as a compact JSON body. It encodes before it writes
// the status line, so a value with no JSON form (a NaN, say) gets the 500
// envelope instead of a 200 with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		WriteStatusError(w, http.StatusInternalServerError, "encoding reply: "+err.Error())
		return
	}
	WriteBody(w, status, append(b, '\n'))
}

// WriteBody writes an encoded JSON body with its Content-Length.
func WriteBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the status is out: a failed write has no one to tell
}

// Error is the client-side decoding of a non-2xx response. Status is always
// set; Code/Message come from the envelope when the body carried one, and
// degrade to the status default and raw body text otherwise.
type Error struct {
	Status  int
	Code    string
	Message string
	Details map[string]any
}

func (e *Error) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("http %d (%s)", e.Status, e.Code)
	}
	return fmt.Sprintf("http %d (%s): %s", e.Status, e.Code, e.Message)
}

// ReadError consumes resp.Body and returns the *Error for a non-2xx
// response. It must only be called when resp.StatusCode is not 2xx.
func ReadError(resp *http.Response) *Error {
	e := &Error{Status: resp.StatusCode, Code: CodeForStatus(resp.StatusCode)}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env Envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
		e.Details = env.Error.Details
		return e
	}
	// Legacy bodies: {"error": "text"} or plain text.
	var flat struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &flat); err == nil && flat.Error != "" {
		e.Message = flat.Error
		return e
	}
	e.Message = strings.TrimSpace(string(body))
	return e
}
