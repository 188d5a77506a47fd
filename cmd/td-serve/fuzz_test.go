package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bodies through decode into every
// request type the daemon accepts, as the handlers call it. Properties:
// decode never panics; a refusal answers 400 — or 413, and only for a
// body over maxBodyBytes — in the unified {"error","code"} JSON shape;
// and an accepted value re-marshals to a body that decodes to the same
// value.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range errorShapeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, newReq := range []func() any{
			func() any { return new(assignReq) },
			func() any { return new(releaseReq) },
			func() any { return new(drainReq) },
			func() any { return new(struct{}) },
		} {
			v := newReq()
			ok, rec := postDecode(body, v)
			if !ok {
				checkRefusal(t, rec, len(body))
				continue
			}
			if rec.Body.Len() != 0 {
				t.Fatalf("%T: body %q accepted, yet a response was written: %s", v, body, rec.Body)
			}
			again, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%T: accepted value %+v does not marshal: %v", v, v, err)
			}
			w := newReq()
			if ok, rec := postDecode(again, w); !ok {
				t.Fatalf("%T: re-marshaled body %q refused with %d: %s", v, again, rec.Code, rec.Body)
			}
			if !reflect.DeepEqual(v, w) {
				t.Fatalf("%T: body %q decoded to %+v, its re-marshaled form %q to %+v", v, body, v, again, w)
			}
		}
	})
}

// postDecode runs decode on a POST of body into v and returns its
// verdict with the recorded response.
func postDecode(body []byte, v any) (bool, *httptest.ResponseRecorder) {
	rec := httptest.NewRecorder()
	ok := decode(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), v)
	return ok, rec
}

// checkRefusal asserts decode's refusal contract on a body of n bytes.
func checkRefusal(t *testing.T, rec *httptest.ResponseRecorder, n int) {
	t.Helper()
	switch {
	case rec.Code == http.StatusBadRequest:
	case rec.Code == http.StatusRequestEntityTooLarge && n > maxBodyBytes:
	default:
		t.Fatalf("refusal of a %d-byte body answered %d: %s", n, rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("refusal with Content-Type %q", ct)
	}
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	var e errResp
	if err := dec.Decode(&e); err != nil || e.Code != rec.Code || e.Error == "" {
		t.Fatalf("refusal body not {\"error\",\"code\"} (err=%v, %+v, status %d)", err, e, rec.Code)
	}
}
