// Package ctrlplane is the execution-template control plane: a cache of
// scheduling decisions keyed by (worker, task class) under a live-worker-set
// generation, after Mashayekhi et al.'s Execution Templates. Iterative
// analytics repeat the same (strategy, partition-plan, worker-set) decision
// thousands of times; the first full decision for a task class is recorded
// as a template and every subsequent task of that class instantiates it in
// O(1), skipping the per-task queue scan and source-selection walk that cap
// master throughput long before the network does.
//
// Correctness rests on one rule: a template is only replayable while the
// inputs the slow path would consult are unchanged. The cache therefore
// carries a generation counter; any event that could change a decision —
// worker join, worker death, evacuation, strategy change — bumps it, and
// every installed entry is stamped with the generation it was derived under.
// A lookup whose entry carries a stale stamp is a miss: the caller re-runs
// the full decision and re-installs. Entries are invalidated lazily (the
// stamp comparison) rather than eagerly swept, so Invalidate is O(1) no
// matter how many templates are cached.
//
// The package is deliberately tiny and dependency-free: the simulator's
// control plane (internal/simrun) embeds a Cache and keeps its own notion of
// what a Decision means. The slow path a template stands for, and is checked
// against, is internal/sched's pick.
package ctrlplane

// Key identifies one template: a task class as seen by one worker. The
// strategy configuration is immutable mid-run in both control planes, so it
// lives in the class string chosen by the caller rather than in the key.
type Key struct {
	// Worker names the worker the decision was derived for; source scans
	// and residency checks are worker-relative.
	Worker string
	// Class names the task class: every task of a class takes the same
	// decision while the generation holds (e.g. "queue" for shared-queue
	// FIFO dispatch, "backlog" for a pre-partitioned backlog pop).
	Class string
}

// Decision is one cached scheduling decision. Fields cover what the slow
// path derives per task; per-task parameters (the task index, its file
// list) are the template's instantiation holes and never cached.
type Decision struct {
	// PickHead: take the head of the worker backlog / shared queue without
	// scanning for resident work.
	PickHead bool
	// SourceMaster: stream the task's missing bytes from the master on the
	// first transfer attempt (the canonical staging source). False means
	// the class has no single static source and the slow path must pick.
	SourceMaster bool
}

// Stats counts cache traffic.
type Stats struct {
	// Hits counts O(1) template instantiations.
	Hits int
	// Misses counts decisions that ran the full slow path: cold classes,
	// stale generations, and classes the caller deemed untemplatable.
	Misses int
	// Invalidations counts generation bumps.
	Invalidations int
}

// entry stamps a decision with the generation it was derived under.
type entry struct {
	gen uint64
	d   Decision
}

// Cache is a generation-stamped decision cache. The zero value is not
// usable; create with NewCache. Not safe for concurrent use — both control
// planes serialise scheduling (the simulator on the event loop, the master
// under its mutex).
type Cache struct {
	gen     uint64
	entries map[Key]entry
	stats   Stats
}

// NewCache returns an empty cache at generation zero.
func NewCache() *Cache {
	return &Cache{entries: make(map[Key]entry)}
}

// Invalidate bumps the generation, staling every installed template.
// Reasons are for the caller's bookkeeping; the cache treats all
// invalidation events identically (conservative over-invalidation is the
// price of a one-word check per lookup).
func (c *Cache) Invalidate() {
	c.gen++
	c.stats.Invalidations++
}

// Lookup returns the cached decision for the key when one exists at the
// current generation. A stale or absent entry counts as a miss; the caller
// is expected to derive the decision via the slow path and Install it.
func (c *Cache) Lookup(k Key) (Decision, bool) {
	if e, ok := c.entries[k]; ok && e.gen == c.gen {
		c.stats.Hits++
		return e.d, true
	}
	c.stats.Misses++
	return Decision{}, false
}

// Install records a freshly derived decision under the current generation,
// replacing any stale entry for the key.
func (c *Cache) Install(k Key, d Decision) {
	c.entries[k] = entry{gen: c.gen, d: d}
}

// NoteMiss books a slow-path decision that never consulted the cache (an
// untemplatable class), keeping Hits+Misses equal to total decisions.
func (c *Cache) NoteMiss() { c.stats.Misses++ }

// Stats returns the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len reports installed entries, including stale ones awaiting lazy
// replacement.
func (c *Cache) Len() int { return len(c.entries) }
