package main

import (
	"bytes"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hetgrid/internal/plan"
	"hetgrid/internal/service"
)

// httpSUT is hetgridd's handler with default settings behind a loopback
// listener, and the client connections that drive it.
type httpSUT struct {
	srv     *service.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve has returned
	url     string
	clients []*http.Client
	// tr, when set, makes the handler wrapper record a span around
	// Handler().ServeHTTP for every request.
	tr atomic.Pointer[tracer]
}

const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

func startHTTP(conns int) (*httpSUT, error) {
	s := &httpSUT{srv: service.New(service.Config{})}
	inner := s.srv.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			inner.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		id := tr.newID()
		start := time.Now()
		inner.ServeHTTP(w, r)
		tr.add(id, parent, op, "service.ServeHTTP", start, time.Now())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: wrapped}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	s.url = "http://" + ln.Addr().String() + "/v1/plan"
	for i := 0; i < conns; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return s, nil
}

func (s *httpSUT) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.hs.Close()
	<-s.served
}

// reply is one response as the client saw it.
type reply struct {
	status int
	hit    bool
	body   []byte
}

// post sends one plan request on client c. With a tracer it records the
// round trip as the operation's root span and passes its identity to the
// handler wrapper.
func (s *httpSUT) post(c *http.Client, buf *bytes.Buffer, body []byte, tr *tracer, op int64) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	if tr != nil {
		id = tr.newID()
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if tr != nil {
		tr.add(id, 0, op, "http.roundtrip", start, time.Now())
	}
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "hit", body: buf.Bytes()}, nil
}

// planBody renders a plan request body for cycle-times on a p×q grid with
// the LU panel spec.
func planBody(times []float64, p, q int, strategy plan.Strategy) []byte {
	return mustJSON(plan.Request{Times: times, P: p, Q: q, Strategy: strategy, Kernel: plan.LU, Panel: &plan.PanelSpec{}})
}

// oracleBody is the response the service must send for req: the
// marshalled plan.Solve of the quantized request under its cache key.
func oracleBody(req plan.Request) ([]byte, error) {
	q := req.Quantized(plan.DefaultQuantDigits)
	res, err := plan.Solve(q)
	if err != nil {
		return nil, err
	}
	res.Plan.Provenance.Key = q.Key(plan.DefaultQuantDigits)
	return append(mustJSON(res.Plan), '\n'), nil
}
