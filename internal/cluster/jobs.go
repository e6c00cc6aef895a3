// Job-scoped views of the cluster endpoints.
//
// A multi-tenant runtime runs many programs (jobs) over one resident
// transport. Each job gets its own tag namespace and its own interrupt
// domain, so two jobs' wire traffic can never match each other's
// receives and one job's abort never poisons another's:
//
//   - Tag namespace: JobNode returns a view of an endpoint whose every
//     tag is XOR-mixed with a splitmix64 hash of the job id before it
//     touches the wire or the match queues. Both sides of a conversation
//     derive the same mix from the same job id, so the mixing is
//     invisible to the protocol layers above — collectives, futures,
//     pulls, and plan pushes isolate for free. Job 0 is the identity mix
//     (bit-identical to the historical single-job wire format).
//
//   - Interrupt domain: a JobCtl is a job-scoped analogue of the
//     cluster-wide Interrupt. Send and Recv through a job view check the
//     job's interrupt in addition to the cluster's, so aborting a job
//     unwedges exactly the receives blocked on that job's traffic while
//     every other job keeps running. Clear re-arms the job for its next
//     attempt (the transport underneath was never poisoned).
//
// The views are cheap (one small struct per shard per job) and share
// the endpoint's queues, handlers, and watchdog wait registry with the
// root node; the mix keeps their keys disjoint.
package cluster

import "sync/atomic"

// mix64 is the splitmix64 finalizer: a cheap bijective hash whose
// output bits are well distributed even for tiny sequential inputs
// (job ids). Used as the XOR tag mix for a job's wire namespace.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// JobMix returns the tag mix for a job id: 0 for job 0 (the legacy
// single-job namespace, bit-identical wire format) and a splitmix64
// hash otherwise. Exposed so layers that materialize tags outside a
// Node view (tooling, tests) can reproduce the namespace.
func JobMix(job uint64) uint64 {
	if job == 0 {
		return 0
	}
	return mix64(job)
}

// JobCtl is one job's control block: its tag mix, its interrupt box,
// and its progress counter. One JobCtl is shared by all of a process's
// views for that job; peer processes construct their own from the same
// job id and agree on the mix by construction.
type JobCtl struct {
	c    *Cluster
	job  uint64
	mix  uint64
	intr atomic.Pointer[intrBox]
	// msgs counts sends issued through this job's views — the per-job
	// progress signal the stall watchdog uses (the cluster-wide counter
	// would let one job's traffic mask another job's wedge).
	msgs atomic.Uint64
}

// NewJobCtl creates the control block for a job id. Job 0 is the
// legacy namespace (identity mix); reserve it for the single-job shim.
func (c *Cluster) NewJobCtl(job uint64) *JobCtl {
	return &JobCtl{c: c, job: job, mix: JobMix(job)}
}

// Job returns the job id.
func (j *JobCtl) Job() uint64 { return j.job }

// Messages returns the number of sends issued through this job's views.
func (j *JobCtl) Messages() uint64 { return j.msgs.Load() }

// Err returns the job's interrupt error, or nil if the job is healthy.
func (j *JobCtl) Err() error {
	if b := j.intr.Load(); b != nil {
		return b.err
	}
	return nil
}

// Interrupt poisons this job: every blocked and future Send/Recv
// through the job's views fails with err, while the cluster transport
// — and every other job — stays healthy. First error wins.
func (j *JobCtl) Interrupt(err error) {
	if err == nil {
		err = ErrInterrupted
	}
	if !j.intr.CompareAndSwap(nil, &intrBox{err: err}) {
		return
	}
	// Wake every local endpoint's cond: receives blocked under this
	// job's views re-check jc.Err() and unwind. Other jobs' waiters
	// observe nil and go back to sleep — a spurious wakeup, not an
	// error.
	for _, id := range j.c.locals {
		n := j.c.nodes[id]
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	}
}

// Clear re-arms the job after a failed attempt has fully unwound. The
// underlying transport was never poisoned, so unlike the cluster-wide
// Advance there is no epoch to mint and no queues to wipe: stale
// traffic from the dead attempt is already isolated by the attempt
// salt in the tags.
func (j *JobCtl) Clear() { j.intr.Store(nil) }

// JobNode returns node id's view in jc's job namespace: same queues,
// same wire, but tags mixed into the job's namespace and receives
// subject to the job's interrupt. The view is a value-like handle —
// callers may create as many as they like.
func (c *Cluster) JobNode(id NodeID, jc *JobCtl) *Node {
	root := c.nodes[id]
	if jc == nil || jc.job == 0 {
		// Job 0 is the legacy namespace: the root view, cluster-scoped
		// interrupts, identity tags.
		return root
	}
	return &Node{id: id, c: c, ep: root, mix: jc.mix, jc: jc}
}

// Job returns the id of the job this node view belongs to (0 for the
// root view).
func (n *Node) Job() uint64 {
	if n.jc != nil {
		return n.jc.job
	}
	return 0
}

// jobErr returns the view's job interrupt, or nil on a root view.
func (n *Node) jobErr() error {
	if n.jc != nil {
		return n.jc.Err()
	}
	return nil
}
