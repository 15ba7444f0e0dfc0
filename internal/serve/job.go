package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Admission and lookup errors. The HTTP layer maps them to status
// codes (429 for the two rejections, 404 for the lookups, 410 for a job
// or a result the service has forgotten: resubmit).
var (
	ErrQueueFull       = errors.New("serve: job queue is full")
	ErrQuotaExceeded   = errors.New("serve: tenant quota exceeded")
	ErrUnknownSnapshot = errors.New("serve: unknown snapshot")
	ErrUnknownJob      = errors.New("serve: unknown job")
	ErrJobExpired      = errors.New("serve: job expired")
	ErrStopped         = errors.New("serve: manager stopped")
	ErrNotDone         = errors.New("serve: job has no result yet")
)

// MaxWait bounds how long one status request may park on a job
// (GET /v1/jobs/{id}?wait=). A constant, not a setting: client and server
// ship from one module, and Client.Wait asks for exactly this much and
// asks again on expiry.
const MaxWait = 30 * time.Second

// finishedJobsKept bounds the terminal jobs Manager.jobs still answers
// for (under 1 KiB each, no result bytes); queued and running jobs are not
// counted and never dropped.
const finishedJobsKept = 2048

// Job is one admitted analytics run. All fields are guarded by the
// manager's mutex; Done exposes completion to waiters.
type Job struct {
	id       string
	tenant   string
	spec     JobSpec
	key      string
	snap     *Snapshot // non-nil while the job holds its reference
	state    string
	err      error
	cacheHit bool
	cancel   context.CancelFunc
	wantStop bool
	done     chan struct{}
}

// JobInfo is the wire form of a job's status.
type JobInfo struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant,omitempty"`
	State    string  `json:"state"`
	Error    string  `json:"error,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Snapshot string  `json:"snapshot"`
	Digest   string  `json:"digest"`
	Spec     JobSpec `json:"spec"`
}

// ManagerConfig sizes the job manager.
type ManagerConfig struct {
	// Executors is the worker pool draining the queue (default 2).
	Executors int
	// QueueCap bounds the number of queued-but-not-running jobs
	// (default 16); submissions beyond it are rejected with
	// ErrQueueFull.
	QueueCap int
	// TenantQuota bounds each tenant's queued+running jobs (0 =
	// unlimited); submissions beyond it are rejected with
	// ErrQuotaExceeded.
	TenantQuota int
	// CacheEntries bounds the results the cache holds (0 = a default of
	// 256); plans and traces are bounded by its byte budget alone.
	CacheEntries int
}

func (c *ManagerConfig) withDefaults() {
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
}

// Manager admits, queues, and executes jobs against registry snapshots.
// Admission control is synchronous (quota and queue-bound rejections
// happen at Submit); execution is asynchronous on a fixed executor
// pool. Completed results are stored in canonical marshalled form and
// cached by (snapshot digest, normalized spec), so a repeat submission
// completes instantly with byte-identical bytes.
type Manager struct {
	reg     *Registry
	metrics *metrics.Registry
	c       counters
	cache   *ResultCache
	cfg     ManagerConfig

	// exec runs one job to its result's canonical bytes: runSpec, or a
	// fake a test injects.
	exec func(ctx context.Context, snap *Snapshot, spec JobSpec) ([]byte, error)

	mu         sync.Mutex
	jobs       map[string]*Job
	finished   []*Job // ring of the last finishedJobsKept terminal jobs
	retired    int    // terminal jobs so far; the ring's write position
	queue      []*Job
	tenantLoad map[string]int
	nextID     int // ids issued: every admitted job, in sequence
	stopped    bool

	notify chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewManager starts a manager with its executor pool. Stop it to
// release the executors.
func NewManager(reg *Registry, mreg *metrics.Registry, cfg ManagerConfig) *Manager {
	cfg.withDefaults()
	m := &Manager{
		reg:        reg,
		metrics:    mreg,
		c:          newCounters(mreg),
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		finished:   make([]*Job, finishedJobsKept),
		tenantLoad: make(map[string]int),
		notify:     make(chan struct{}, cfg.Executors),
		stopCh:     make(chan struct{}),
	}
	m.cache = newResultCache(cfg.CacheEntries, resultBudget, &m.c)
	m.exec = m.runSpec
	m.wg.Add(cfg.Executors)
	for i := 0; i < cfg.Executors; i++ {
		go m.executor()
	}
	return m
}

// Metrics returns the manager's metrics registry.
func (m *Manager) Metrics() *metrics.Registry { return m.metrics }

// Registry returns the snapshot registry jobs run against.
func (m *Manager) Registry() *Registry { return m.reg }

// Submit validates and admits a job for tenant. On a result-cache hit
// the returned job is already done (its Done channel is closed and Result
// reads the cached bytes). Rejections return ErrQueueFull or
// ErrQuotaExceeded; unknown snapshots ErrUnknownSnapshot; malformed
// specs a validation error.
func (m *Manager) Submit(tenant string, spec JobSpec) (*Job, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	snap, ok := m.reg.Get(spec.Snapshot)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSnapshot, spec.Snapshot)
	}
	key := spec.cacheKey(snap.Digest())

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		snap.release()
		return nil, ErrStopped
	}
	job := &Job{
		tenant: tenant,
		spec:   spec,
		key:    key,
		snap:   snap,
		done:   make(chan struct{}),
	}

	// Cache hits bypass admission entirely: they consume no queue slot
	// and no tenant quota, and complete before Submit returns.
	if _, hit := m.cache.Get(key); hit {
		m.c.results.hits.Inc()
		m.c.completed.Inc()
		job.state = StateDone
		job.cacheHit = true
		job.snap.release()
		job.snap = nil
		close(job.done)
		m.admitLocked(job)
		m.retireLocked(job)
		return job, nil
	}

	if m.cfg.TenantQuota > 0 && m.tenantLoad[tenant] >= m.cfg.TenantQuota {
		m.c.rejectedQuota.Inc()
		snap.release()
		return nil, fmt.Errorf("%w: tenant %q at %d jobs", ErrQuotaExceeded, tenant, m.cfg.TenantQuota)
	}
	if len(m.queue) >= m.cfg.QueueCap {
		m.c.rejectedQueueFull.Inc()
		snap.release()
		return nil, fmt.Errorf("%w: %d queued", ErrQueueFull, len(m.queue))
	}

	// A miss is counted once the job is admitted: a refused submission
	// computes nothing.
	m.c.resultMisses.Inc()
	job.state = StateQueued
	m.queue = append(m.queue, job)
	m.tenantLoad[tenant]++
	m.admitLocked(job)

	// Non-blocking wake: the channel holds one token per executor, and
	// executors re-check the queue before blocking, so a dropped token
	// never strands a queued job.
	select {
	case m.notify <- struct{}{}:
	default:
	}
	return job, nil
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func jobID(n int) string { return fmt.Sprintf("j%08d", n) }

// admitLocked issues the next id to job and enters it in the job table.
// Refused submissions get no id, so every id up to nextID named a job.
func (m *Manager) admitLocked(job *Job) {
	m.nextID++
	job.id = jobID(m.nextID)
	m.jobs[job.id] = job
	m.c.submitted.Inc()
}

// lookupLocked finds a job by id. Ids are sequential, so one the manager
// issued but no longer holds is told apart from one it never issued
// without keeping anything: ErrJobExpired against ErrUnknownJob.
func (m *Manager) lookupLocked(id string) (*Job, error) {
	if job, ok := m.jobs[id]; ok {
		return job, nil
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && 1 <= n && n <= m.nextID && id == jobID(n) {
		m.c.lookupsGone.Inc()
		return nil, fmt.Errorf("%w: %q is no longer held, resubmit", ErrJobExpired, id)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
}

// retireLocked enters a terminal job in the ring of finished jobs; the
// job whose slot it takes leaves Manager.jobs.
func (m *Manager) retireLocked(job *Job) {
	slot := &m.finished[m.retired%len(m.finished)]
	if *slot != nil {
		delete(m.jobs, (*slot).id)
		m.c.jobsExpired.Inc()
	}
	*slot = job
	m.retired++
}

// Info snapshots a job's status.
func (m *Manager) Info(id string) (JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, err := m.lookupLocked(id)
	if err != nil {
		return JobInfo{}, err
	}
	return m.infoLocked(job), nil
}

// info is Info of a job in hand, which cannot have expired.
func (m *Manager) info(job *Job) JobInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.infoLocked(job)
}

func (m *Manager) infoLocked(job *Job) JobInfo {
	info := JobInfo{
		ID:       job.id,
		Tenant:   job.tenant,
		State:    job.state,
		CacheHit: job.cacheHit,
		Snapshot: job.spec.Snapshot,
		Spec:     job.spec,
	}
	if job.err != nil {
		info.Error = job.err.Error()
	}
	// The digest is captured at submission, surviving registry swaps.
	if job.snap != nil {
		info.Digest = job.snap.Digest()
	} else if i := len(job.key); i > 64 {
		info.Digest = job.key[:64] // cacheKey = hex digest + "\n" + spec
	}
	return info
}

// wait is Info that first parks on the job's Done channel until the job
// is terminal, d elapses, ctx ends, or the manager stops. Expiry is not
// an error: the info then carries a non-terminal state and the caller
// asks again. A stopped manager cancels every job, so its waiters are
// refused with ErrStopped rather than held until the executors notice.
func (m *Manager) wait(ctx context.Context, id string, d time.Duration) (JobInfo, error) {
	m.mu.Lock()
	job, err := m.lookupLocked(id)
	m.mu.Unlock()
	if err != nil {
		return JobInfo{}, err
	}
	if d > 0 {
		select {
		case <-job.done: // terminal already: nothing to park on, stopped or not
		default:
			m.c.waitsParked.Inc()
			// The bound is a context, so go vet's lostcancel holds its
			// release.
			wctx, cancel := context.WithTimeout(ctx, d)
			defer cancel()
			select {
			case <-job.done:
			case <-wctx.Done():
				if err := ctx.Err(); err != nil {
					return JobInfo{}, err
				}
				m.c.waitsExpired.Inc()
			case <-m.stopCh:
				return JobInfo{}, ErrStopped
			}
		}
	}
	// By the job, not by its id: a waiter whose job finished and then left
	// the ring while it slept still gets the terminal answer.
	return m.info(job), nil
}

// Result returns the canonical marshalled result bytes of a done job,
// read through the result cache, their one owner: ErrJobExpired once they
// are evicted, though the job's status still answers.
func (m *Manager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, err := m.lookupLocked(id)
	if err != nil {
		return nil, err
	}
	switch job.state {
	case StateDone:
		if b, ok := m.cache.Get(job.key); ok {
			return b, nil
		}
		m.c.lookupsGone.Inc()
		return nil, fmt.Errorf("%w: the result of %s was evicted, resubmit", ErrJobExpired, id)
	case StateFailed:
		return nil, job.err
	default:
		return nil, fmt.Errorf("%w: %s is %s", ErrNotDone, id, job.state)
	}
}

// Cancel stops a job: a queued job leaves the queue immediately
// (freeing its slot and snapshot reference); a running job's context is
// cancelled and the executor completes the transition. Terminal jobs
// are left as they are.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, err := m.lookupLocked(id)
	if err != nil {
		return err
	}
	switch job.state {
	case StateQueued:
		for i, q := range m.queue {
			if q == job {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		m.finishLocked(job, StateCancelled, context.Canceled)
	case StateRunning:
		job.wantStop = true
		job.cancel()
	}
	return nil
}

// finishLocked moves a job to a terminal state: records the outcome,
// returns the snapshot reference and the tenant's quota slot, closes
// Done, enters the ring, and bumps the outcome counter. Callers hold m.mu.
func (m *Manager) finishLocked(job *Job, state string, err error) {
	job.state = state
	job.err = err
	if job.snap != nil {
		job.snap.release()
		job.snap = nil
	}
	if m.tenantLoad[job.tenant] <= 1 {
		delete(m.tenantLoad, job.tenant)
	} else {
		m.tenantLoad[job.tenant]--
	}
	close(job.done)
	m.retireLocked(job)
	switch state {
	case StateDone:
		m.c.completed.Inc()
	case StateFailed:
		m.c.failed.Inc()
	case StateCancelled:
		m.c.cancelled.Inc()
	}
}

// executor drains the queue until Stop.
func (m *Manager) executor() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var job *Job
		if len(m.queue) > 0 {
			job = m.queue[0]
			copy(m.queue, m.queue[1:])
			m.queue = m.queue[:len(m.queue)-1]
		}
		m.mu.Unlock()
		if job == nil {
			select {
			case <-m.notify:
			case <-m.stopCh:
				return
			}
			continue
		}
		m.runJob(job)
	}
}

// runJob executes one dequeued job to a terminal state, unless an identical
// job that ran first or runs now answers it: a cache hit, executing nothing.
func (m *Manager) runJob(job *Job) {
	m.mu.Lock()
	if job.state != StateQueued {
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.cancel = cancel
	job.state = StateRunning
	snap, spec := job.snap, job.spec
	m.mu.Unlock()

	// Execute and encode outside m.mu: every tenant's Submit, Info and
	// Result, and every waiter's wake-up, would otherwise queue behind it.
	// A result is charged its key and its bytes.
	computed := false
	_, err := memo(m.cache, ctx, &m.cache.results, job.key, func() ([]byte, int64, error) {
		computed = true
		b, err := m.exec(ctx, snap, spec)
		return b, int64(len(job.key) + len(b)), err
	})
	cancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err != nil && (job.wantStop || errors.Is(err, context.Canceled)):
		m.finishLocked(job, StateCancelled, context.Canceled)
	case err != nil:
		m.finishLocked(job, StateFailed, err)
	default:
		job.cacheHit = !computed
		m.finishLocked(job, StateDone, nil)
	}
}

// Stop shuts the manager down: no new submissions, queued jobs are
// cancelled, running jobs' contexts are cancelled, and the executor
// pool is joined.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	queued := m.queue
	m.queue = nil
	for _, job := range queued {
		m.finishLocked(job, StateCancelled, context.Canceled)
	}
	for _, job := range m.jobs {
		if job.state == StateRunning && job.cancel != nil {
			job.wantStop = true
			job.cancel()
		}
	}
	m.mu.Unlock()
	close(m.stopCh)
	m.wg.Wait()
}

// runSpec is the default executor: resolve the spec's partition plan
// through the cache's memo, run the selected engine and marshal its
// result. A simulator job executes through the memo too and only prices
// what it finds there — the execution does not depend on the
// architecture, the policy or the switch — and copies the values'
// encoding the memo keeps beside the trace instead of encoding them.
func (m *Manager) runSpec(ctx context.Context, snap *Snapshot, spec JobSpec) ([]byte, error) {
	run := spec.Spec()
	sys, err := run.System()
	if err != nil {
		return nil, err
	}
	var assign *partition.Assignment
	var plan planKey
	if run.Engine != EngineSerial {
		plan = planKey{snap.Digest(), sys.Partitioner(), run.Partitions}
		if assign, err = m.cache.plan(ctx, snap.Graph(), plan); err != nil {
			return nil, err
		}
	}
	if run.Engine != EngineSim {
		res, err := run.Run(ctx, snap.Graph(), assign)
		if err != nil {
			return nil, err
		}
		return MarshalResult(res)
	}
	k, err := kernels.ByNameIters(run.Kernel, run.PRIters)
	if err != nil {
		return nil, err
	}
	// A trace is charged its key's strings, its Size and its encoding.
	canon := run.Canonical()
	key := traceKey{plan: plan, kernel: canon.Kernel, iters: canon.PRIters}
	kept, err := memo(m.cache, ctx, &m.cache.traces, key, func() (keptTrace, int64, error) {
		tr, err := sys.Execute(ctx, snap.Graph(), k, core.RunConfig{Assignment: assign})
		if err != nil {
			return keptTrace{}, 0, err
		}
		res, err := sys.Price(tr)
		if err != nil {
			return keptTrace{}, 0, err
		}
		encoded := make([]byte, valuesLen(len(res.Values)))
		encodeValues(encoded, res.Values)
		return keptTrace{tr, encoded}, int64(len(plan.digest)+len(key.kernel)+len(encoded)) + tr.Size(), nil
	})
	if err != nil {
		return nil, err
	}
	res, err := sys.Price(kept.trace)
	if err != nil {
		return nil, err
	}
	return marshalResult(res, kept.encoded)
}

// ExecuteSpec runs a normalized spec against a graph directly — the
// offline twin of the service's executor, used by the served-vs-offline
// oracle to compute the expected result without a server. A nil assign
// partitions internally (with the spec's partitioner and seed).
func ExecuteSpec(ctx context.Context, g *graph.Graph, spec JobSpec, assign *partition.Assignment) (*core.Result, error) {
	return spec.Spec().Run(ctx, g, assign)
}
