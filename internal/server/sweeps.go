package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ppatc/internal/dse"
)

// Sweep job lifecycle states.
const (
	SweepQueued    = "queued"
	SweepRunning   = "running"
	SweepDone      = "done"
	SweepFailed    = "failed"
	SweepCancelled = "cancelled"
)

var errSweepCancelled = errors.New("sweep cancelled")

// sweepJob is one asynchronous design-space sweep. Results are committed
// in plan order, so /results streams a stable prefix of the final NDJSON
// while the sweep is still running.
type sweepJob struct {
	id   string
	plan *dse.Plan
	// requestID is the X-Request-ID of the POST that created the job,
	// carried into sweep and persistence log records so an async
	// failure joins back to its originating request.
	requestID string

	mu       sync.Mutex
	status   string
	errMsg   string
	results  []dse.Result
	resumed  int           // points adopted from the result store
	notify   chan struct{} // closed and replaced on every commit
	cancel   context.CancelFunc
	created  time.Time
	finished time.Time
	// analyses is the encoded /frontier body, built once as the job
	// reaches SweepDone; analysesErr is why it could not be.
	analyses    []byte
	analysesErr error
}

func (j *sweepJob) commit(r dse.Result) {
	j.mu.Lock()
	j.results = append(j.results, r)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

func (j *sweepJob) setStatus(status, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.errMsg = errMsg
	if status == SweepDone || status == SweepFailed || status == SweepCancelled {
		j.finished = time.Now()
	}
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

func sweepTerminal(status string) bool {
	return status == SweepDone || status == SweepFailed || status == SweepCancelled
}

// sweepManager owns the job table and the bounded runner pool. Job IDs
// are the spec hash, so POSTing the same spec twice (or after a daemon
// restart) lands on the same job — and, with a result store, on the
// same completed points.
type sweepManager struct {
	mu    sync.Mutex
	jobs  map[string]*sweepJob
	order []string
	queue chan *sweepJob
}

// maxSweepJobs bounds the job table; oldest terminal jobs are evicted.
const maxSweepJobs = 64

func newSweepManager(queueDepth int) *sweepManager {
	return &sweepManager{
		jobs:  make(map[string]*sweepJob),
		queue: make(chan *sweepJob, queueDepth),
	}
}

func (m *sweepManager) get(id string) *sweepJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

func (m *sweepManager) list() []*sweepJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*sweepJob, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// add registers a job (unless its ID exists) and enqueues it. existing
// is non-nil when the spec is already known; queued reports whether a
// new job found queue room.
func (m *sweepManager) add(j *sweepJob) (existing *sweepJob, queued bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prior, ok := m.jobs[j.id]; ok {
		return prior, false
	}
	select {
	case m.queue <- j:
	default:
		return nil, false
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	return nil, true
}

// evictLocked drops the oldest terminal jobs once the table overflows.
func (m *sweepManager) evictLocked() {
	if len(m.order) <= maxSweepJobs {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - maxSweepJobs
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		terminal := sweepTerminal(j.status)
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// runSweeps is one runner goroutine: it executes queued jobs until the
// server closes.
func (s *Server) runSweeps() {
	for {
		select {
		case j := <-s.sweeps.queue:
			s.runSweep(j)
		case <-s.base.Done():
			return
		}
	}
}

func (s *Server) runSweep(j *sweepJob) {
	j.mu.Lock()
	if j.status != SweepQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.status = SweepRunning
	ctx, cancel := context.WithCancelCause(s.base)
	j.cancel = func() { cancel(errSweepCancelled) }
	j.mu.Unlock()
	defer cancel(nil)

	start := time.Now()
	opts := dse.Options{
		Workers:     s.cfg.Workers,
		EvalCounter: s.metrics.SweepPoints,
		OnResult: func(r dse.Result) error {
			j.commit(r)
			return nil
		},
	}
	// Adopt every point some earlier job already computed and persisted
	// — an interrupted run of this spec before a restart, or any other
	// job sharing coordinates — by coordinate identity.
	completed := dse.StoredCompleted(s.store, j.plan)
	opts.Completed = completed
	j.mu.Lock()
	j.resumed = len(completed)
	j.mu.Unlock()
	// Fresh evaluations write through to the store; a persist failure
	// degrades (metered) rather than failing the sweep.
	opts.OnComplete = func(r dse.Result) error {
		s.persistPoint(j.plan, r, j.requestID)
		return nil
	}

	// With alive peers, shard the plan across the cluster instead of
	// running it on one box: the coordinator merges ranges back into
	// plan order, so the committed results — and the persistence writes
	// in opts.OnComplete — are the same either way.
	if n := s.clusterNode(); n != nil && len(n.AlivePeers()) > 0 {
		s.runDistributedSweep(ctx, j, completed, opts.OnComplete, start)
		return
	}

	_, err := dse.RunPlan(ctx, j.plan, opts)
	switch {
	case err == nil:
		s.finishSweep(j, SweepDone, nil, start)
	case errors.Is(err, errSweepCancelled):
		s.finishSweep(j, SweepCancelled, nil, start)
	case errors.Is(err, context.Canceled):
		// Daemon shutdown: leave the job resumable, not failed.
		s.finishSweep(j, SweepCancelled, nil, start)
	default:
		s.finishSweep(j, SweepFailed, err, start)
	}
}

// finishSweep moves a job to its terminal status. A done job's results
// are complete in j.results: they are persisted for replay, and the
// analysis bundle is built and stored before the status flips, so every
// client that sees "done" can fetch it without further computation.
func (s *Server) finishSweep(j *sweepJob, status string, err error, start time.Time) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	if status == SweepDone {
		j.mu.Lock()
		results := j.results
		j.mu.Unlock()
		s.persistSweep(j.id, results, j.requestID)
		body, aerr := encodeAnalyses(j.plan.Spec.Objectives, results)
		if aerr == nil {
			s.persistAnalyses(j.id, body, j.requestID)
		}
		j.mu.Lock()
		j.analyses, j.analysesErr = body, aerr
		j.mu.Unlock()
	}
	j.setStatus(status, msg)
	s.metrics.SweepJobs.With(status).Add(1)
	s.metrics.SweepSeconds.With(status).Observe(time.Since(start))
	s.log.Info("sweep",
		"id", j.id,
		"spec", j.plan.Spec.Name,
		"status", status,
		"points", len(j.plan.Points),
		"duration_ms", float64(time.Since(start).Microseconds())/1e3,
		"request_id", j.requestID,
		"error", msg,
	)
}

// sweepStatus is the job-status JSON envelope.
type sweepStatus struct {
	ID        string  `json:"id"`
	Name      string  `json:"name,omitempty"`
	Status    string  `json:"status"`
	Total     int     `json:"total"`
	Completed int     `json:"completed"`
	Resumed   int     `json:"resumed,omitempty"`
	Error     string  `json:"error,omitempty"`
	SpecSHA   string  `json:"spec_sha256,omitempty"`
	CreatedAt string  `json:"created_at,omitempty"`
	Elapsed   float64 `json:"elapsed_s"`
	// Stored marks a status reconstructed from the persistent store: the
	// job finished in an earlier process life and only its results remain.
	Stored bool `json:"stored,omitempty"`
}

func (j *sweepJob) snapshot() sweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return sweepStatus{
		ID:        j.id,
		Name:      j.plan.Spec.Name,
		Status:    j.status,
		Total:     len(j.plan.Points),
		Completed: len(j.results),
		Resumed:   j.resumed,
		Error:     j.errMsg,
		SpecSHA:   j.plan.Hash,
		CreatedAt: j.created.UTC().Format(time.RFC3339),
		Elapsed:   end.Sub(j.created).Seconds(),
	}
}

func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	spec, err := dse.ParseSpec(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Size the spec before expanding it: a small body can name a plan of
	// up to dse.MaxPlanPoints points, far past this server's cap.
	size, err := dse.PlanSize(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if size > s.cfg.SweepMaxPoints {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sweep has %d points, cap is %d", size, s.cfg.SweepMaxPoints))
		return
	}
	plan, err := dse.Expand(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := &sweepJob{
		id:        plan.Hash[:12],
		plan:      plan,
		requestID: w.Header().Get("X-Request-ID"),
		status:    SweepQueued,
		notify:    make(chan struct{}),
		created:   time.Now(),
	}
	existing, queued := s.sweeps.add(j)
	if existing != nil {
		writeJSON(w, existing.snapshot()) // idempotent POST: same spec, same job
		return
	}
	if !queued {
		s.metrics.Rejections.Add(1)
		writeError(w, http.StatusServiceUnavailable, errors.New("sweep queue full"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, j.snapshot())
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sweeps.list()
	out := make([]sweepStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	writeJSON(w, out)
}

func (s *Server) sweepByPath(w http.ResponseWriter, r *http.Request) *sweepJob {
	j := s.sweeps.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.sweeps.get(r.PathValue("id")); j != nil {
		writeJSON(w, j.snapshot())
		return
	}
	s.serveStoredSweepStatus(w, r)
}

// handleSweepResults streams the job's results as NDJSON, in plan order,
// following the sweep live until it reaches a terminal state (or the
// client goes away). A done job replays instantly — and byte-identically,
// per the engine's determinism contract. An ID the in-memory table no
// longer knows (the daemon restarted since the sweep ran) replays from
// the persistent store.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	j := s.sweeps.get(r.PathValue("id"))
	if j == nil {
		s.serveStoredSweepResults(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		j.mu.Lock()
		results := j.results // append-only: the prefix is immutable
		status := j.status
		notify := j.notify
		j.mu.Unlock()
		for ; sent < len(results); sent++ {
			line, err := results[sent].MarshalLine()
			if err != nil {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if sweepTerminal(status) && sent == len(results) {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// sweepAnalyses is the analysis bundle of a finished sweep: the Pareto
// frontier over the spec's objectives, the per-axis sensitivity of the
// first objective, and the win-probability summary.
type sweepAnalyses struct {
	Objectives  []dse.Objective       `json:"objectives"`
	Frontier    []dse.Result          `json:"frontier"`
	Sensitivity []dse.AxisSensitivity `json:"sensitivity,omitempty"`
	Winners     *dse.WinnerSummary    `json:"winners,omitempty"`
}

// encodeAnalyses computes a done sweep's analysis bundle and encodes it
// as the GET /v1/sweeps/{id}/frontier body. Sensitivity and winners are
// omitted when the sweep gives them nothing to rank.
func encodeAnalyses(objectives []dse.Objective, results []dse.Result) ([]byte, error) {
	front, err := dse.Frontier(results, objectives)
	if err != nil {
		return nil, err
	}
	out := sweepAnalyses{Objectives: objectives, Frontier: front}
	if sens, err := dse.Sensitivity(results, objectives[0].Metric); err == nil {
		out.Sensitivity = sens
	}
	if win, err := dse.Winners(results, objectives[0]); err == nil {
		out.Winners = win
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// handleSweepFrontier serves a done sweep's analysis bundle, as built
// when the sweep finished; the request does no analysis work. An ID the
// job table no longer knows replays the bundle from the store.
func (s *Server) handleSweepFrontier(w http.ResponseWriter, r *http.Request) {
	j := s.sweeps.get(r.PathValue("id"))
	if j == nil {
		s.serveStoredSweepFrontier(w, r)
		return
	}
	j.mu.Lock()
	status, body, err := j.status, j.analyses, j.analysesErr
	j.mu.Unlock()
	if status != SweepDone {
		writeError(w, http.StatusConflict, fmt.Errorf("sweep is %s; analyses need a done sweep", status))
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	j := s.sweepByPath(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	switch {
	case sweepTerminal(j.status):
		// Nothing to do; report the terminal state.
	case j.status == SweepQueued:
		j.status = SweepCancelled
		j.finished = time.Now()
		close(j.notify)
		j.notify = make(chan struct{})
		s.metrics.SweepJobs.With(SweepCancelled).Add(1)
	default: // running
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	writeJSON(w, j.snapshot())
}
