package api

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"cryptomining/internal/scenario"
	"cryptomining/pkg/apiv1"
)

// maxScenarioBody bounds a scenario document submission; documents are small
// typed JSON, never bulk data.
const maxScenarioBody = 1 << 20

func (s *Server) scenarios(w http.ResponseWriter) *scenario.Manager {
	if s.cfg.Scenarios == nil {
		s.error(w, http.StatusConflict, apiv1.CodeScenarioDisabled,
			"what-if scenarios disabled (daemon runs without a scenario manager)")
		return nil
	}
	return s.cfg.Scenarios
}

// handleScenarios serves POST /api/v1/scenarios (submit a what-if document,
// answering 202 with the job to poll) and GET /api/v1/scenarios (list
// retained jobs, newest first).
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	m := s.scenarios(w)
	if m == nil {
		return
	}
	if r.Method == http.MethodGet {
		jobs := m.Jobs()
		page := apiv1.ScenarioStatusPage{Scenarios: make([]apiv1.ScenarioStatus, 0, len(jobs))}
		for _, j := range jobs {
			page.Scenarios = append(page.Scenarios, scenarioStatusToWire(j))
		}
		s.writeJSON(w, http.StatusOK, page)
		return
	}
	var req apiv1.ScenarioRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxScenarioBody+1))
	if err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, "read body: "+err.Error())
		return
	}
	if len(body) > maxScenarioBody {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, "scenario document exceeds 1 MiB")
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, "decode scenario document: "+err.Error())
		return
	}
	id, err := m.Submit(scenarioDocFromWire(req))
	switch {
	case errors.Is(err, scenario.ErrCapacity):
		s.error(w, http.StatusServiceUnavailable, apiv1.CodeScenarioCapacity, err.Error())
		return
	case err != nil:
		s.error(w, http.StatusBadRequest, apiv1.CodeBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusAccepted, apiv1.ScenarioSubmitted{ID: id, State: string(scenario.StatePending)})
}

// handleScenarioStatus serves GET /api/v1/scenarios/{id}.
func (s *Server) handleScenarioStatus(w http.ResponseWriter, r *http.Request) {
	m := s.scenarios(w)
	if m == nil {
		return
	}
	job, err := m.Job(r.PathValue("id"))
	if err != nil {
		s.error(w, http.StatusNotFound, apiv1.CodeNotFound, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, scenarioStatusToWire(job))
}

// handleScenarioDelta serves GET /api/v1/scenarios/{id}/delta: the full
// baseline-vs-scenario comparison of a completed job. A job still pending or
// running answers 503 with Retry-After, mirroring the pending-results
// contract.
func (s *Server) handleScenarioDelta(w http.ResponseWriter, r *http.Request) {
	m := s.scenarios(w)
	if m == nil {
		return
	}
	job, err := m.Job(r.PathValue("id"))
	if err != nil {
		s.error(w, http.StatusNotFound, apiv1.CodeNotFound, err.Error())
		return
	}
	switch job.State {
	case scenario.StateDone:
		s.writeJSON(w, http.StatusOK, scenarioDeltaToWire(job))
	case scenario.StateFailed:
		s.error(w, http.StatusConflict, apiv1.CodeInternal, "scenario failed: "+job.Error)
	default:
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		s.error(w, http.StatusServiceUnavailable, apiv1.CodeScenarioPending,
			"scenario "+job.ID+" is "+string(job.State))
	}
}

// scenarioDocFromWire converts a wire request into the engine's document
// type. Unknown kinds survive the conversion and are rejected by Validate,
// so the error message names the offending kind.
func scenarioDocFromWire(req apiv1.ScenarioRequest) scenario.Document {
	doc := scenario.Document{Name: req.Name, Description: req.Description}
	for _, iv := range req.Interventions {
		conv := scenario.Intervention{
			Kind:                scenario.Kind(iv.Kind),
			At:                  iv.At,
			Wallets:             iv.Wallets,
			Pools:               iv.Pools,
			Families:            iv.Families,
			MaintainedCampaigns: iv.MaintainedCampaigns,
		}
		if len(iv.Cooperation) > 0 {
			conv.Cooperation = make(map[string]scenario.Cooperation, len(iv.Cooperation))
			for name, c := range iv.Cooperation {
				conv.Cooperation[name] = scenario.Cooperation{
					Cooperative: c.Cooperative,
					MinIPsToBan: c.MinIPsToBan,
				}
			}
		}
		doc.Interventions = append(doc.Interventions, conv)
	}
	return doc
}

func scenarioStatusToWire(j scenario.Job) apiv1.ScenarioStatus {
	return apiv1.ScenarioStatus{
		ID:          j.ID,
		Name:        j.Doc.Name,
		State:       string(j.State),
		SubmittedAt: j.SubmittedAt,
		StartedAt:   j.StartedAt,
		FinishedAt:  j.FinishedAt,
		Error:       j.Error,
	}
}

func scenarioDeltaToWire(j scenario.Job) apiv1.ScenarioDelta {
	res := j.Result
	out := apiv1.ScenarioDelta{
		ID:          j.ID,
		Name:        res.Doc.Name,
		Description: res.Doc.Description,
		ForkedAt:    res.ForkedAt,
		Baseline:    scenarioTotalsToWire(res.Baseline),
		Scenario:    scenarioTotalsToWire(res.Scenario),
	}
	for _, cd := range res.Campaigns {
		out.Campaigns = append(out.Campaigns, apiv1.ScenarioCampaignDelta{
			ID:          cd.ID,
			BaselineXMR: cd.BaselineXMR,
			ScenarioXMR: cd.ScenarioXMR,
			DeltaXMR:    cd.DeltaXMR,
			BaselineUSD: cd.BaselineUSD,
			ScenarioUSD: cd.ScenarioUSD,
			DeltaUSD:    cd.DeltaUSD,
			Timeline:    scenarioPointsToWire(cd.Timeline),
		})
	}
	for _, sd := range res.Ecosystem {
		out.Ecosystem = append(out.Ecosystem, apiv1.ScenarioSeriesDelta{
			Metric: sd.Metric,
			Points: scenarioPointsToWire(sd.Points),
		})
	}
	for _, a := range res.Applied {
		wa := apiv1.ScenarioApplied{
			Kind:            string(a.Kind),
			At:              a.At,
			ReplayInstant:   a.ReplayInstant,
			AffectedWallets: a.AffectedWallets,
			RemovedXMR:      a.RemovedXMR,
			CeasedCampaigns: a.CeasedCampaigns,
		}
		for _, o := range a.Outcomes {
			wa.Outcomes = append(wa.Outcomes, apiv1.ScenarioReportOutcome{
				Pool:   o.Pool,
				Wallet: o.Wallet,
				Banned: o.Banned,
				Reason: o.Reason,
			})
		}
		out.Applied = append(out.Applied, wa)
	}
	return out
}

func scenarioTotalsToWire(t scenario.Totals) apiv1.ScenarioTotals {
	return apiv1.ScenarioTotals{
		XMR: t.XMR, USD: t.USD, Campaigns: t.Campaigns, Wallets: t.Wallets, Kept: t.Kept,
	}
}

func scenarioPointsToWire(pts []scenario.BucketDelta) []apiv1.ScenarioBucketDelta {
	if len(pts) == 0 {
		return nil
	}
	out := make([]apiv1.ScenarioBucketDelta, 0, len(pts))
	for _, p := range pts {
		out = append(out, apiv1.ScenarioBucketDelta{
			Start: p.Start, Baseline: p.Baseline, Scenario: p.Scenario, Delta: p.Delta,
		})
	}
	return out
}
