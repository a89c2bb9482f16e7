package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"cryptomining/internal/stream"
	"cryptomining/internal/timeseries"
	"cryptomining/pkg/apiv1"
)

// maxNDJSONLine bounds one bulk-ingestion line and a single-sample body
// (samples carry base64 bodies).
const maxNDJSONLine = 32 << 20

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, StatsToWire(s.cfg.Engine.Stats()))
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("invalid %s=%q: must be an integer", name, raw)
	}
	if v < 0 {
		return 0, fmt.Errorf("invalid %s=%d: must be >= 0", name, v)
	}
	return v, nil
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit")
	if err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, err.Error())
		return
	}
	// A raw offset is refused rather than ignored: ignoring it would hand a
	// client that still sends one page one for ever.
	if r.URL.Query().Has("offset") {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest,
			"offset is not supported: continue a listing with cursor=<next_cursor of the previous page>")
		return
	}
	offset := 0
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		offset, err = decodeCursor(raw)
		if err != nil {
			s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, err.Error())
			return
		}
	}
	filter := stream.CampaignFilter{
		Pool:   r.URL.Query().Get("pool"),
		Wallet: r.URL.Query().Get("wallet"),
	}
	if raw := r.URL.Query().Get("min_xmr"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest,
				fmt.Sprintf("invalid min_xmr=%q: must be a non-negative number", raw))
			return
		}
		filter.MinXMR = v
	}

	// One snapshot load serves the whole request: the listing, the entity
	// tag and any minted cursor all describe the same epoch. The view is
	// pre-sorted by earnings, and filtering preserves that stable order.
	v := s.cfg.Engine.CurrentView()
	if s.notModified(w, r, etagForEpoch(v.Epoch)) {
		return
	}
	views := make([]stream.CampaignView, 0, len(v.Campaigns))
	for _, cv := range v.Campaigns {
		if filter.Matches(cv) {
			views = append(views, cv)
		}
	}
	page := apiv1.CampaignPage{
		Total:     len(views),
		Limit:     limit,
		Offset:    offset,
		Campaigns: []apiv1.Campaign{},
	}
	if offset < len(views) {
		window := views[offset:]
		if limit > 0 && limit < len(window) {
			window = window[:limit]
		}
		page.Campaigns = CampaignsToWire(window)
		if next := offset + len(window); next < len(views) {
			page.NextCursor = encodeCursor(v.Epoch, next)
		}
	}
	s.writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleCampaignDetail(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest,
			fmt.Sprintf("invalid campaign id %q: must be an integer", r.PathValue("id")))
		return
	}
	v := s.cfg.Engine.CurrentView()
	detail, ok := v.Detail(id)
	if !ok {
		s.error(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Sprintf("no campaign with id %d", id))
		return
	}
	if s.notModified(w, r, etagForEpoch(v.Epoch)) {
		return
	}
	s.writeJSON(w, http.StatusOK, DetailToWire(detail))
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	res := s.cfg.Engine.CurrentView().Results
	if res == nil {
		// 503 + Retry-After, not 404: the route exists, the resource is just
		// not ready yet, and pollers should keep polling.
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		s.error(w, http.StatusServiceUnavailable, apiv1.CodeResultsPending,
			"results pending: replay still in flight")
		return
	}
	s.writeJSON(w, http.StatusOK, ResultsToWire(res))
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Checkpoint == nil {
		s.error(w, http.StatusConflict, apiv1.CodePersistenceDisabled,
			"persistence disabled (run with -data-dir)")
		return
	}
	info, err := s.cfg.Checkpoint()
	if err != nil {
		s.error(w, http.StatusInternalServerError, apiv1.CodeInternal, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

// submitWire validates and submits one decoded sample, writing the mapped
// error on failure. Reports whether ingestion may continue.
func (s *Server) submitWire(w http.ResponseWriter, ctx context.Context, ws apiv1.Sample, lineinfo string) bool {
	sample, err := SampleFromWire(ws)
	if err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, lineinfo+err.Error())
		return false
	}
	if s.cfg.Submit == nil {
		s.error(w, http.StatusConflict, apiv1.CodeIngestClosed, "ingestion not available")
		return false
	}
	// Bound each submission rather than the whole request: bulk bodies may
	// legitimately take arbitrarily long, but any single sample the engine
	// cannot absorb within the request timeout is a stall, and the client
	// should see the advertised 503 instead of hanging.
	sctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	if err := s.cfg.Submit(sctx, sample); err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			s.error(w, http.StatusServiceUnavailable, apiv1.CodeBackpressure,
				lineinfo+"ingestion backpressure: "+err.Error())
		case errors.Is(err, stream.ErrFinished) || errors.Is(err, stream.ErrNotStarted):
			s.error(w, http.StatusConflict, apiv1.CodeIngestClosed, lineinfo+err.Error())
		default:
			// Infrastructure failures (e.g. a WAL write error) are server
			// faults, not a closed intake: 500 so clients keep retrying.
			s.error(w, http.StatusInternalServerError, apiv1.CodeInternal, lineinfo+err.Error())
		}
		return false
	}
	return true
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	ctype := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ctype); err == nil {
		ctype = mt
	}
	switch ctype {
	case "application/x-ndjson", "application/ndjson":
		s.ingestBulk(w, r)
	default:
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxNDJSONLine))
		var ws apiv1.Sample
		if err := dec.Decode(&ws); err != nil {
			s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, "decode sample: "+err.Error())
			return
		}
		// Reject trailing values instead of silently dropping them: an
		// NDJSON body posted without the ndjson Content-Type would otherwise
		// ingest only its first line while reporting success.
		if dec.More() {
			s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest,
				"body contains more than one JSON value; bulk uploads need Content-Type: application/x-ndjson")
			return
		}
		if !s.submitWire(w, r.Context(), ws, "") {
			return
		}
		s.writeJSON(w, http.StatusAccepted, apiv1.IngestResult{Accepted: 1})
	}
}

// ingestBulk streams an NDJSON body into the engine, one sample per line.
// Lines are applied in order; a malformed line aborts the request with 400,
// naming the line and how many earlier samples were already accepted.
func (s *Server) ingestBulk(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64*1024), maxNDJSONLine)
	line, accepted := 0, 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ws apiv1.Sample
		if err := json.Unmarshal(raw, &ws); err != nil {
			s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest,
				fmt.Sprintf("line %d: %v (%d samples already accepted)", line, err, accepted))
			return
		}
		if !s.submitWire(w, r.Context(), ws, fmt.Sprintf("line %d: ", line)) {
			return
		}
		accepted++
	}
	if err := sc.Err(); err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest,
			fmt.Sprintf("read body after line %d: %v (%d samples already accepted)", line, err, accepted))
		return
	}
	s.writeJSON(w, http.StatusAccepted, apiv1.IngestResult{Accepted: accepted})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.error(w, http.StatusInternalServerError, apiv1.CodeInternal, "streaming unsupported")
		return
	}
	format := r.URL.Query().Get("format")
	sse := format == "sse" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "text/event-stream"))

	// A HEAD probe must not subscribe to a never-ending stream: answer the
	// headers and end the response.
	if r.Method == http.MethodHead {
		if sse {
			w.Header().Set("Content-Type", "text/event-stream; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		}
		w.WriteHeader(http.StatusOK)
		return
	}

	events, cancel := s.cfg.Engine.Subscribe(s.cfg.EventBuffer)
	defer cancel()

	if sse {
		w.Header().Set("Content-Type", "text/event-stream; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			buf, err := json.Marshal(EventToWire(ev))
			if err != nil {
				s.log.Warn("encode event failed", "err", err)
				continue
			}
			if sse {
				_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, buf)
			} else {
				buf = append(buf, '\n')
				_, err = w.Write(buf)
			}
			if err != nil {
				return // client gone
			}
			flusher.Flush()
			if ev.Type == stream.EventDrained {
				// Drained is terminal: end the stream so iterating clients
				// get EOF instead of blocking on a run that will never emit
				// another event.
				return
			}
		}
	}
}

// parseTSQuery decodes the shared timeseries query parameters: metric (a
// series name), resolution (a duration naming a configured level; "1d"
// style day units accepted), window (a positive duration bounding the series
// to the most recent span).
func parseTSQuery(r *http.Request) (stream.TimeseriesQuery, error) {
	q := stream.TimeseriesQuery{Metric: r.URL.Query().Get("metric")}
	if raw := r.URL.Query().Get("resolution"); raw != "" {
		d, err := timeseries.ParseDuration(raw)
		if err != nil || d <= 0 {
			return q, fmt.Errorf("invalid resolution=%q: want a positive duration like 1s, 1m, 1h or 1d", raw)
		}
		q.Resolution = d
	}
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := timeseries.ParseDuration(raw)
		if err != nil || d <= 0 {
			return q, fmt.Errorf("invalid window=%q: want a positive duration like 10m, 6h or 30d", raw)
		}
		// Relative windows are resolved by the engine against its own
		// recording clock, which may be injected and unrelated to ours.
		q.Window = d
	}
	return q, nil
}

// writeTSError maps the engine's timeseries errors onto the envelope:
// unknown resolutions/metrics are client errors (400).
func (s *Server) writeTSError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, stream.ErrUnknownResolution), errors.Is(err, stream.ErrUnknownMetric):
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, err.Error())
	default:
		s.error(w, http.StatusInternalServerError, apiv1.CodeInternal, err.Error())
	}
}

func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	q, err := parseTSQuery(r)
	if err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, err.Error())
		return
	}
	snap, err := s.cfg.Engine.Timeseries(q)
	if err != nil {
		s.writeTSError(w, err)
		return
	}
	// The resolved window start is folded into the tag: at a fixed epoch a
	// relative window still slides with the recording clock, and the tag
	// must change when the selected buckets do.
	epoch := s.cfg.Engine.CurrentView().Epoch
	if s.notModified(w, r, etagForWindow(epoch, snap.From)) {
		return
	}
	s.writeJSON(w, http.StatusOK, TimeseriesToWire(snap))
}

func (s *Server) handleCampaignTimeline(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest,
			fmt.Sprintf("invalid campaign id %q: must be an integer", r.PathValue("id")))
		return
	}
	q, err := parseTSQuery(r)
	if err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, err.Error())
		return
	}
	snap, ok, err := s.cfg.Engine.CampaignTimeline(id, q)
	if err != nil {
		s.writeTSError(w, err)
		return
	}
	if !ok {
		s.error(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Sprintf("no campaign with id %d", id))
		return
	}
	epoch := s.cfg.Engine.CurrentView().Epoch
	if s.notModified(w, r, etagForWindow(epoch, snap.From)) {
		return
	}
	s.writeJSON(w, http.StatusOK, TimelineToWire(id, snap))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, apiv1.Health{Status: "ok"})
}
