package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
)

// CoordinatorConfig wires a coordinator to its plan, sink and knobs.
type CoordinatorConfig struct {
	// Plan is the campaign specification handed to registering agents.
	Plan Plan
	// Sink receives merged samples in their final order. Errors marked
	// engine.Transient are retried up to MaxRetries times; anything
	// else fails the campaign.
	Sink func(results.Sample) error
	// Commit makes everything written to Sink durable and reports the
	// durable byte offset; called at every checkpoint (required when
	// CheckpointPath is set).
	Commit engine.CommitFunc
	// CheckpointPath enables cluster checkpointing: the merge watermark
	// is persisted in the engine's checkpoint format after every
	// CheckpointEvery merged rounds, exactly on the engine's cadence,
	// so binary block boundaries match a checkpointing engine run.
	CheckpointPath  string
	CheckpointEvery int
	// StartRound/StartSamples resume an interrupted campaign from a
	// checkpoint watermark (cp.Round+1, cp.Samples): every shard's
	// upload watermark restarts at StartRound and cells above it are
	// re-uploaded.
	StartRound   int
	StartSamples uint64
	// MaxPendingRounds bounds how far any shard's uploads may run ahead
	// of the merge frontier (default DefaultMaxPendingRounds).
	MaxPendingRounds int
	// StallTTL revokes the lease of a frontier-blocking shard that has
	// not advanced its upload watermark for this long (default
	// DefaultStallTTL). Heartbeat loss is governed by Plan.LeaseTTL.
	StallTTL time.Duration
	// MaxRetries bounds transient sink-error retries per sample
	// (default engine.DefaultMaxRetries).
	MaxRetries int
	// OnRound, when set, observes each merged round (index and sample
	// count). It runs with the coordinator's lock held and must not
	// call back into the coordinator.
	OnRound func(round int, samples uint64)
	// Metrics, when set, receives the cluster instrument set.
	Metrics *Metrics
	// Log, when set, receives structured control-plane events.
	Log *obs.Logger

	// now overrides the clock in tests.
	now func() time.Time
}

// lease is one shard's active grant.
type lease struct {
	id          string
	agent       string
	granted     time.Time
	lastAdvance time.Time
}

// partial is an in-flight chunked upload for one shard.
type partial struct {
	round int
	lease string
	size  int64
	crc   uint32
	buf   []byte
}

// shardState is the coordinator's view of one shard of the partition.
type shardState struct {
	// uploaded is the shard's durable watermark: the number of rounds
	// whose cells have been accepted (merged or pending).
	uploaded int
	// pending holds accepted cells not yet merged, keyed by round.
	pending map[int][]results.Sample
	// partial is the in-flight chunked upload, if any.
	partial *partial
}

// agentState tracks one registered agent.
type agentState struct {
	lastSeen time.Time
}

// Coordinator owns the campaign: the shard partition, the agent
// registry and lease table, the round-major merge into the sink, and
// the cluster checkpoint. All state lives behind one mutex; there are
// no background goroutines — lease expiry and reassignment run inline
// on every agent request, so an idle coordinator is perfectly quiescent.
type Coordinator struct {
	cfg   CoordinatorConfig
	plan  Plan
	log   *obs.Logger
	m     *Metrics
	clock func() time.Time

	mu            sync.Mutex
	shards        []shardState
	leases        map[int]*lease // keyed by shard
	agents        map[string]*agentState
	merged        int // rounds fully merged into the sink
	samples       uint64
	leaseSeq      uint64
	reassignments uint64
	err           error
	finished      bool
	done          chan struct{}
}

// NewCoordinator validates the configuration and builds a coordinator
// with every shard's watermark at StartRound.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	p := cfg.Plan
	if p.Shards < 1 {
		return nil, fmt.Errorf("cluster: plan needs at least one shard (got %d)", p.Shards)
	}
	if p.Rounds < 1 {
		return nil, fmt.Errorf("cluster: plan needs at least one round (got %d)", p.Rounds)
	}
	if p.Fingerprint == "" {
		return nil, errors.New("cluster: plan missing fingerprint")
	}
	if cfg.Sink == nil {
		return nil, errors.New("cluster: nil sink")
	}
	if cfg.CheckpointPath != "" && cfg.Commit == nil {
		return nil, errors.New("cluster: checkpointing requires Commit")
	}
	if cfg.StartRound < 0 || cfg.StartRound > p.Rounds {
		return nil, fmt.Errorf("cluster: start round %d outside [0, %d]", cfg.StartRound, p.Rounds)
	}
	if cfg.MaxPendingRounds <= 0 {
		cfg.MaxPendingRounds = DefaultMaxPendingRounds
	}
	if cfg.StallTTL <= 0 {
		cfg.StallTTL = DefaultStallTTL
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = engine.DefaultCheckpointEvery
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{
		cfg:    cfg,
		plan:   p,
		log:    cfg.Log.With("coordinator"),
		m:      cfg.Metrics,
		clock:  cfg.now,
		shards: make([]shardState, p.Shards),
		leases: make(map[int]*lease),
		agents: make(map[string]*agentState),
		merged: cfg.StartRound,
		done:   make(chan struct{}),
	}
	c.samples = cfg.StartSamples
	for i := range c.shards {
		c.shards[i].uploaded = cfg.StartRound
		c.shards[i].pending = make(map[int][]results.Sample)
	}
	if c.m != nil {
		c.m.RoundsMerged.Set(float64(c.merged))
	}
	if cfg.StartRound == p.Rounds {
		// Nothing left to merge (a resume of a completed run).
		c.finished = true
		close(c.done)
	}
	return c, nil
}

// Plan returns the campaign plan agents execute.
func (c *Coordinator) Plan() Plan { return c.plan }

// register admits (or refreshes) an agent and returns the plan.
func (c *Coordinator) register(agent string) Plan {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(now)
	if _, ok := c.agents[agent]; !ok {
		c.log.Info("agent registered", "agent", agent)
	}
	c.agents[agent] = &agentState{lastSeen: now}
	c.refreshGauges(now)
	return c.plan
}

// leaseResult is the outcome of a lease request.
type leaseResult struct {
	status     string // "grant", "wait", or "done"
	shard      int
	startRound int
	leaseID    string
	retry      time.Duration
}

// leaseShard grants the requesting agent the most urgent available
// shard: among unleased, unfinished shards, the one with the lowest
// upload watermark (the merge-frontier blocker) wins, ties to the
// lowest shard index. One lease per agent: a prior lease held by the
// same agent is released first, so a re-leasing agent can never
// deadlock the frontier behind its own abandoned grant.
func (c *Coordinator) leaseShard(agent string) leaseResult {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(agent, now)
	c.reap(now)
	for shard, l := range c.leases {
		if l.agent == agent {
			c.dropLease(shard, "superseded")
		}
	}
	best, bestUploaded := -1, 0
	finished := 0
	for i := range c.shards {
		if c.shards[i].uploaded >= c.plan.Rounds {
			finished++
			continue
		}
		if _, leased := c.leases[i]; leased {
			continue
		}
		if best == -1 || c.shards[i].uploaded < bestUploaded {
			best, bestUploaded = i, c.shards[i].uploaded
		}
	}
	if finished == len(c.shards) {
		return leaseResult{status: "done"}
	}
	if best == -1 {
		return leaseResult{status: "wait", retry: c.plan.LeaseTTL() / 4}
	}
	c.leaseSeq++
	l := &lease{
		id:          fmt.Sprintf("L%06d", c.leaseSeq),
		agent:       agent,
		granted:     now,
		lastAdvance: now,
	}
	c.leases[best] = l
	c.refreshGauges(now)
	c.log.Info("lease granted",
		"lease", l.id, "shard", best, "agent", agent, "start_round", bestUploaded)
	return leaseResult{status: "grant", shard: best, startRound: bestUploaded, leaseID: l.id}
}

// heartbeat refreshes an agent's liveness and reports whether the
// named lease is still valid.
func (c *Coordinator) heartbeat(agent, leaseID string) bool {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(agent, now)
	c.reap(now)
	c.refreshGauges(now)
	for _, l := range c.leases {
		if l.id == leaseID && l.agent == agent {
			return true
		}
	}
	return false
}

// release voluntarily returns a lease (agents do this after sustained
// upload backpressure so a frontier-blocking shard can be granted).
func (c *Coordinator) release(agent, leaseID string) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(agent, now)
	for shard, l := range c.leases {
		if l.id == leaseID && l.agent == agent {
			c.dropLease(shard, "released")
			break
		}
	}
	c.reap(now)
	c.refreshGauges(now)
}

// touch refreshes an agent's last-seen time (registering it if the
// coordinator restarted and lost the registry).
func (c *Coordinator) touch(agent string, now time.Time) {
	if a, ok := c.agents[agent]; ok {
		a.lastSeen = now
		return
	}
	c.agents[agent] = &agentState{lastSeen: now}
}

// dropLease removes a shard's lease and any in-flight upload tied to
// it. Callers hold c.mu.
func (c *Coordinator) dropLease(shard int, why string) {
	l := c.leases[shard]
	delete(c.leases, shard)
	if st := &c.shards[shard]; st.partial != nil && l != nil && st.partial.lease == l.id {
		st.partial = nil
	}
	if l != nil {
		c.log.Info("lease dropped", "lease", l.id, "shard", shard, "agent", l.agent, "why", why)
	}
}

// reap revokes leases whose agents went dark (no heartbeat within the
// lease TTL) or whose shard blocks the merge frontier without
// advancing (stalled for StallTTL). Runs inline on every agent
// request; callers hold c.mu.
func (c *Coordinator) reap(now time.Time) {
	ttl := c.plan.LeaseTTL()
	for shard, l := range c.leases {
		a := c.agents[l.agent]
		dead := a == nil || now.Sub(a.lastSeen) > ttl
		st := &c.shards[shard]
		blocking := st.uploaded == c.merged && st.uploaded < c.plan.Rounds
		last := l.lastAdvance
		if l.granted.After(last) {
			last = l.granted
		}
		stalled := blocking && now.Sub(last) > c.cfg.StallTTL
		if !dead && !stalled {
			continue
		}
		why := "heartbeat lost"
		if !dead {
			why = "frontier stalled"
		}
		c.reassignments++
		c.m.reassignment()
		c.log.Warn("lease revoked",
			"lease", l.id, "shard", shard, "agent", l.agent, "why", why,
			"uploaded", st.uploaded, "merged", c.merged)
		c.dropLease(shard, why)
	}
}

// refreshGauges recomputes the liveness and lease gauges. Callers hold
// c.mu.
func (c *Coordinator) refreshGauges(now time.Time) {
	if c.m == nil {
		return
	}
	ttl := c.plan.LeaseTTL()
	live := 0
	for _, a := range c.agents {
		if now.Sub(a.lastSeen) <= ttl {
			live++
		}
	}
	c.m.AgentsLive.Set(float64(live))
	c.m.LeasesActive.Set(float64(len(c.leases)))
	var oldest time.Duration
	for _, l := range c.leases {
		if age := now.Sub(l.granted); age > oldest {
			oldest = age
		}
	}
	c.m.LeaseAgeMax.Set(oldest.Seconds())
}

// accept folds a fully received, CRC-verified cell payload into the
// shard's pending set and advances the merge. Callers hold c.mu.
func (c *Coordinator) accept(shard, round int, payload []byte, now time.Time) error {
	samples, err := results.DecodeCell(payload)
	if err != nil {
		return err
	}
	st := &c.shards[shard]
	st.pending[round] = samples
	st.uploaded++
	c.m.shardGauge(shard).Set(float64(st.uploaded))
	if l := c.leases[shard]; l != nil {
		l.lastAdvance = now
	}
	c.m.cellMerged()
	return c.advance()
}

// advance merges every round whose full shard row is pending: cells
// are written in shard order within the round, the engine's checkpoint
// cadence is applied, and completion closes the done channel. Callers
// hold c.mu.
func (c *Coordinator) advance() error {
	for c.merged < c.plan.Rounds {
		ready := true
		for i := range c.shards {
			if _, ok := c.shards[i].pending[c.merged]; !ok {
				ready = false
				break
			}
		}
		if !ready {
			return nil
		}
		round := c.merged
		var roundSamples uint64
		for i := range c.shards {
			cell := c.shards[i].pending[round]
			delete(c.shards[i].pending, round)
			for _, s := range cell {
				if err := c.write(s); err != nil {
					c.fail(err)
					return err
				}
			}
			roundSamples += uint64(len(cell))
		}
		c.merged++
		c.samples += roundSamples
		if c.m != nil {
			c.m.RoundsMerged.Set(float64(c.merged))
		}
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(round, roundSamples)
		}
		// Mirror the engine's checkpoint condition exactly so binary
		// block boundaries (sealed by Commit) match a checkpointing
		// single-process run.
		if c.cfg.CheckpointPath != "" &&
			(c.merged-c.cfg.StartRound)%c.cfg.CheckpointEvery == 0 &&
			c.merged < c.plan.Rounds {
			if err := c.writeCheckpoint(round); err != nil {
				c.fail(err)
				return err
			}
		}
	}
	if !c.finished {
		c.finished = true
		c.log.Info("campaign merged",
			"rounds", c.plan.Rounds, "shards", c.plan.Shards,
			"samples", c.samples, "reassignments", c.reassignments)
		close(c.done)
	}
	return nil
}

// write pushes one merged sample into the sink, retrying transient
// errors. Callers hold c.mu.
func (c *Coordinator) write(s results.Sample) error {
	maxRetries := c.cfg.MaxRetries
	if maxRetries <= 0 {
		maxRetries = engine.DefaultMaxRetries
	}
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if err = c.cfg.Sink(s); err == nil {
			return nil
		}
		if !engine.IsTransient(err) {
			return err
		}
		c.log.Warn("sink retry", "attempt", attempt+1, "error", err)
	}
	return fmt.Errorf("cluster: sink still failing after %d retries: %w", maxRetries, err)
}

// writeCheckpoint commits the sink and persists the merge watermark in
// the engine's checkpoint format. Callers hold c.mu.
func (c *Coordinator) writeCheckpoint(round int) error {
	offset, err := c.cfg.Commit()
	if err != nil {
		return fmt.Errorf("cluster: checkpoint commit: %w", err)
	}
	cp := engine.Checkpoint{
		Version:     engine.CheckpointVersion,
		Fingerprint: c.plan.Fingerprint,
		Workers:     c.plan.Shards,
		Round:       round,
		Samples:     c.samples,
		SinkOffset:  offset,
		Shards:      make([]engine.ShardMark, c.plan.Shards),
	}
	// Upload watermarks ahead of the merge are deliberately not
	// persisted: a restarted coordinator re-collects those cells, which
	// keeps resume state identical to the engine's.
	for s := range cp.Shards {
		cp.Shards[s] = engine.ShardMark{Shard: s, Round: round}
	}
	if err := cp.Save(c.cfg.CheckpointPath); err != nil {
		return err
	}
	c.m.checkpointWrite()
	c.log.Info("checkpoint written",
		"path", c.cfg.CheckpointPath, "round", round, "samples", c.samples, "sink_offset", offset)
	return nil
}

// fail records the first fatal error and releases waiters. Callers
// hold c.mu.
func (c *Coordinator) fail(err error) {
	if c.finished {
		return
	}
	c.finished = true
	c.err = err
	c.log.Error("campaign failed", "error", err, "merged", c.merged, "samples", c.samples)
	close(c.done)
}

// Wait blocks until every round is merged, the campaign fails, or ctx
// is cancelled. It returns the campaign's fatal error, if any.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done reports whether the campaign has finished (merged or failed).
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished
}

// Merged returns the merged-round watermark.
func (c *Coordinator) Merged() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged
}

// Samples returns the merged sample count.
func (c *Coordinator) Samples() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples
}

// Reassignments returns how many leases were revoked from dead or
// stalled agents.
func (c *Coordinator) Reassignments() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reassignments
}

// AgentsSeen returns how many distinct agents ever registered.
func (c *Coordinator) AgentsSeen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.agents)
}

// AgentStatus is one agent's row in the status snapshot.
type AgentStatus struct {
	ID         string `json:"id"`
	LastSeenMs int64  `json:"last_seen_ms"`
	Live       bool   `json:"live"`
}

// LeaseStatus is one active lease's row in the status snapshot.
type LeaseStatus struct {
	Shard    int    `json:"shard"`
	Agent    string `json:"agent"`
	Lease    string `json:"lease"`
	AgeMs    int64  `json:"age_ms"`
	Uploaded int    `json:"uploaded"`
}

// Status is the coordinator's live state snapshot, served over HTTP.
type Status struct {
	Fingerprint   string        `json:"fingerprint"`
	Shards        int           `json:"shards"`
	Rounds        int           `json:"rounds"`
	Merged        int           `json:"merged"`
	Samples       uint64        `json:"samples"`
	PendingCells  int           `json:"pending_cells"`
	Reassignments uint64        `json:"reassignments"`
	Done          bool          `json:"done"`
	Error         string        `json:"error,omitempty"`
	Agents        []AgentStatus `json:"agents"`
	Leases        []LeaseStatus `json:"leases"`
}

// Status snapshots the coordinator's live state.
func (c *Coordinator) Status() Status {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	ttl := c.plan.LeaseTTL()
	st := Status{
		Fingerprint:   c.plan.Fingerprint,
		Shards:        c.plan.Shards,
		Rounds:        c.plan.Rounds,
		Merged:        c.merged,
		Samples:       c.samples,
		Reassignments: c.reassignments,
		Done:          c.finished,
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	for i := range c.shards {
		st.PendingCells += len(c.shards[i].pending)
	}
	for id, a := range c.agents {
		st.Agents = append(st.Agents, AgentStatus{
			ID:         id,
			LastSeenMs: now.Sub(a.lastSeen).Milliseconds(),
			Live:       now.Sub(a.lastSeen) <= ttl,
		})
	}
	sort.Slice(st.Agents, func(i, j int) bool { return st.Agents[i].ID < st.Agents[j].ID })
	for shard, l := range c.leases {
		st.Leases = append(st.Leases, LeaseStatus{
			Shard:    shard,
			Agent:    l.agent,
			Lease:    l.id,
			AgeMs:    now.Sub(l.granted).Milliseconds(),
			Uploaded: c.shards[shard].uploaded,
		})
	}
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].Shard < st.Leases[j].Shard })
	return st
}
