package exec

import (
	"sync"

	"cloudviews/internal/plan"
)

// schedule.go is the stage-parallel DAG scheduler. Instead of walking the
// plan depth-first (which serializes independent subtrees — the two inputs
// of a join never overlapped in wall-clock time), execution is driven by
// dependency counting: every node knows how many distinct children it
// waits on, leaves are seeded into the shared worker pool, and each
// completion decrements its parents' counters, dispatching any node that
// becomes ready. Shared (spooled) subtrees are single nodes in the graph,
// so they execute exactly once — the scheduler subsumes the serial path's
// memoization.
//
// The simulated accounting is unchanged by design: per-node Stats are
// computed from the node's own output and its children's recorded stats,
// and the critical-path latency recurrence (max over children + own
// share) is order-independent, so NodeStats, TotalCPU, and Latency are
// byte-identical to the serial walk. TestParallelSchedulerMatchesSerial
// pins that equivalence.

// dagRun is the state of one scheduled execution.
type dagRun struct {
	e  *Executor
	st *execState

	mu      sync.Mutex
	waiting map[*plan.Node]int          // distinct children still running
	parents map[*plan.Node][]*plan.Node // distinct parents to notify
	outs    map[*plan.Node]partitions   // completed node outputs
	err     error                       // first operator error; stops dispatch
	wg      sync.WaitGroup              // in-flight node executions
}

// runDAG executes the plan rooted at root with the dependency-counting
// scheduler, filling st exactly as the serial walk would.
func (e *Executor) runDAG(root *plan.Node, st *execState) error {
	nodes := plan.Nodes(root)
	d := &dagRun{
		e:       e,
		st:      st,
		waiting: make(map[*plan.Node]int, len(nodes)),
		parents: make(map[*plan.Node][]*plan.Node, len(nodes)),
		outs:    make(map[*plan.Node]partitions, len(nodes)),
	}
	var ready []*plan.Node
	for _, n := range nodes {
		distinct := 0
		seen := map[*plan.Node]bool{}
		for _, c := range n.Children {
			if seen[c] {
				continue
			}
			seen[c] = true
			distinct++
			d.parents[c] = append(d.parents[c], n)
		}
		d.waiting[n] = distinct
		if distinct == 0 {
			ready = append(ready, n)
		}
	}
	for _, n := range ready {
		d.dispatch(n)
	}
	d.wg.Wait()
	return d.err
}

// dispatch hands a ready node to the worker pool, executing inline when
// every worker is busy (work-conserving, never blocking).
func (d *dagRun) dispatch(n *plan.Node) {
	if !pool.trySpawn(&d.wg, func() { d.exec(n) }) {
		d.wg.Add(1)
		d.exec(n)
		d.wg.Done()
	}
}

// exec runs one node whose children have all completed, records its stats
// and output, and dispatches any parent that became ready.
func (d *dagRun) exec(n *plan.Node) {
	d.mu.Lock()
	if d.err != nil {
		d.mu.Unlock()
		return
	}
	childParts := make([]partitions, len(n.Children))
	childStats := make([]*Stats, len(n.Children))
	var childLatency, childCumCost float64
	for i, c := range n.Children {
		childParts[i] = d.outs[c]
		cs := d.st.res.NodeStats[c]
		childStats[i] = cs
		if cs.Latency > childLatency {
			childLatency = cs.Latency
		}
		childCumCost += cs.CumulativeCost
	}
	d.mu.Unlock()

	out, outBytes, cost, vm, err := d.e.runVertex(n, childParts, childStats, d.st)

	// Stats assembly (including any residual byte walk) happens outside
	// the run lock; only the bookkeeping maps are guarded.
	var ns *Stats
	if err == nil {
		ns = nodeStats(out, outBytes, cost, childLatency, childCumCost)
		ns.Latency += vm.extra
		// Deadline enforcement mirrors the serial walk exactly: latency is
		// monotone up the tree, so whichever vertex observes the overrun
		// first, the job fails with the same (vertex-independent) error.
		if d.st.pastDeadline(ns.Latency) {
			err = d.st.deadlineErr()
			ns = nil
		}
	}
	if err == nil && d.e.Obs != nil {
		// Emit outside the run lock, like the kernel itself; the event is
		// self-contained and the collector order-normalizes.
		d.e.emitVertex(n, ns, childLatency, vm, d.st)
	}

	d.mu.Lock()
	if err != nil {
		if d.err == nil {
			d.err = err
		}
		d.mu.Unlock()
		return
	}
	if d.err != nil {
		d.mu.Unlock()
		return
	}
	d.outs[n] = out
	d.st.res.NodeStats[n] = ns
	var newlyReady []*plan.Node
	for _, p := range d.parents[n] {
		d.waiting[p]--
		if d.waiting[p] == 0 {
			newlyReady = append(newlyReady, p)
		}
	}
	d.mu.Unlock()
	for _, p := range newlyReady {
		d.dispatch(p)
	}
}
