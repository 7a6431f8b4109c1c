package incremental

import (
	"context"
	"fmt"
	"math"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kernels"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/parallel"
)

// Observability instruments for the incremental expansion maintenance,
// written once per Apply after the workers join: repaired_sources
// counts (source, phase) repairs that ran incrementally,
// rebuilt_sources the sources whose repair hit the budget and whose BFS
// was re-run, and orphaned_nodes the nodes the finished deletion
// repairs orphaned.
var (
	obsExpApplies  = obs.Default().Counter("incremental.expansion.applies")
	obsExpRepaired = obs.Default().Counter("incremental.expansion.repaired_sources")
	obsExpRebuilt  = obs.Default().Counter("incremental.expansion.rebuilt_sources")
	obsExpOrphans  = obs.Default().Counter("incremental.expansion.orphaned_nodes")
)

// infDist is the tentative-distance sentinel during repair sweeps.
const infDist = int32(math.MaxInt32)

// ExpansionMaintainer keeps per-source BFS distance fields and level
// counts current across epoch deltas, so the §III-D envelope
// measurement never re-runs an untouched BFS. Each Apply repairs every
// source with a unit-weight Ramalingam–Reps pass: deletions first on
// the intermediate topology (old minus losses — equal to the new
// topology minus the gained edges), by orphaning nodes whose every
// shortest-path parent died and re-leveling them from the clean
// boundary; then insertions on the new topology as a bucketed
// multi-source relaxation seeded at the gained edges. Distances only
// grow in the first phase and only shrink in the second, which is what
// makes both sweeps linear in the size of the affected region rather
// than the graph. A source whose own aliveness flipped needs no special
// case: going down orphans its whole tree, coming up relaxes it.
//
// Each phase has a work budget (see budget). A phase that exceeds it
// drops the source's partial repair and skips the insertion phase, and
// the source is marked for a fresh BFS on the new topology, so a large
// orphan region or a flipped source costs about one BFS. Once every
// repair has run, the marked sources are re-run 64 at a time through
// kernels.BFSBatch.RunDistances, cut in node-ID order
// (kernels.SortByNode), where nearby sources share most of each
// level's scan; the initial BFSs run the same way.
//
// Apply spreads the repairs, and then the batches, over the workers
// with parallel.ForEach, one set of repair scratch and one BFSBatch per
// worker slot. The maintainer materializes no topology of its own:
// every Apply is handed the epoch's CSR (the engine's
// faults.Model.Degraded) and filters only the intermediate topology
// from it, before the fan-out. Both are only read during it, and only the task that owns a source
// writes its distance field and levels, so the maintained state is the
// same at any worker count and in any source order.
//
// The maintained state is exact: after every Apply, each source's
// distance field and level counts are bit-identical to a fresh BFS on
// the current topology, and Measure folds the counts through
// expansion.Measure's resume path so the aggregate Result is
// bit-identical to the from-scratch measurement. Memory is
// O(len(sources) · n) for the distance fields plus about 47·n bytes of
// scratch per worker (32·n of them the BFSBatch). Not safe for
// concurrent use.
type ExpansionMaintainer struct {
	sources []graph.NodeID
	dist    [][]int32
	levels  [][]int64

	// pending holds the delta's gained edges while buildAdjacency masks
	// them out of the intermediate snapshot; pendTouch marks their
	// endpoints, so the build skips the map lookup for every other node.
	pending   map[uint64]bool
	pendTouch []bool

	// The topologies every source's repair within one Apply scans, up
	// to a thousand times (once per source), as plain slice walks. cur
	// is the epoch's CSR as the last Apply (or the constructor) was
	// handed it, which the rebuild batches read too; ioff/iadj hold the
	// intermediate topology (cur minus pending gains).
	cur  *graph.Graph
	ioff []int32
	iadj []graph.NodeID

	// slots holds one set of repair scratch per worker slot.
	slots []*repairSlot
	// last sums the slots' counts over the latest Apply.
	last repairCounts
}

// repairCounts tallies the paths one Apply's repairs took.
type repairCounts struct {
	// repaired counts the (source, phase) repairs that ran
	// incrementally and had something to repair.
	repaired int64
	// orphaned counts the nodes those deletion repairs orphaned.
	orphaned int64
	// deletionFallbacks and insertionFallbacks count the sources whose
	// deletion or insertion phase exceeded the budget, so that their BFS
	// was re-run instead.
	deletionFallbacks, insertionFallbacks int64
}

// add accumulates o into c.
func (c *repairCounts) add(o repairCounts) {
	c.repaired += o.repaired
	c.orphaned += o.orphaned
	c.deletionFallbacks += o.deletionFallbacks
	c.insertionFallbacks += o.insertionFallbacks
}

// repairSlot is one worker's repair scratch. Between repairs every
// mark is clear: orphan, fixed and proc false, tent infDist, and the
// buckets and lists empty.
type repairSlot struct {
	em *ExpansionMaintainer

	// batch re-runs marked sources' BFSs, rebound to each Apply's cur.
	batch *kernels.BFSBatch
	// stale lists the sources whose repair this slot marked in the
	// current Apply.
	stale []int

	orphan  []bool
	fixed   []bool
	tent    []int32
	orphans []graph.NodeID
	touched []graph.NodeID
	queue   []graph.NodeID
	// buckets[d] queues nodes at tentative distance d; blo and bhi
	// bound the buckets in use (infDist and -1 when none is).
	buckets  [][]graph.NodeID
	blo, bhi int32

	// nsup memoizes each node's surviving shortest-path parent count
	// during one deletion repair (valid iff supStamp matches stampGen);
	// proc marks orphans whose children have been visited. Together
	// they make the orphan cascade O(region·deg): each touched node is
	// scanned once, later parent deaths are O(1) decrements.
	nsup     []int32
	supStamp []int32
	stampGen int32
	proc     []bool

	// work counts the neighbor-list entries the current phase scanned;
	// past budget the phase falls back.
	work, budget int
	repairCounts
}

// NewExpansionMaintainer runs the initial BFS for every source on g
// and returns a maintainer positioned at it. g must stay unchanged until
// the first Apply. The BFS batches, and every later Apply, spread over
// workers goroutines (<= 0 means GOMAXPROCS).
func NewExpansionMaintainer(g *graph.Graph, sources []graph.NodeID, workers int) (*ExpansionMaintainer, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("incremental: expansion needs at least one source")
	}
	for _, s := range sources {
		if !g.Valid(s) {
			return nil, fmt.Errorf("incremental: expansion source %d out of range", s)
		}
	}
	n := g.NumNodes()
	em := &ExpansionMaintainer{
		sources:   append([]graph.NodeID(nil), sources...),
		dist:      make([][]int32, len(sources)),
		levels:    make([][]int64, len(sources)),
		pending:   make(map[uint64]bool),
		pendTouch: make([]bool, n),
		slots:     make([]*repairSlot, parallel.Workers(workers, len(sources))),
	}
	for k := range em.slots {
		s := &repairSlot{
			em:       em,
			batch:    new(kernels.BFSBatch),
			orphan:   make([]bool, n),
			fixed:    make([]bool, n),
			tent:     make([]int32, n),
			blo:      infDist,
			bhi:      -1,
			nsup:     make([]int32, n),
			supStamp: make([]int32, n),
			proc:     make([]bool, n),
		}
		for v := range s.tent {
			s.tent[v] = infDist
		}
		em.slots[k] = s
	}
	em.buildAdjacency(g)
	all := make([]int, len(sources))
	for i := range all {
		em.dist[i] = make([]int32, n)
		all[i] = i
	}
	em.rebuild(all)
	return em, nil
}

// buildAdjacency makes g the current topology, filters the
// intermediate one from it (iadj: g minus pending gained edges) and
// rebinds every slot's batch to g.
func (em *ExpansionMaintainer) buildAdjacency(g *graph.Graph) {
	em.cur = g
	n := g.NumNodes()
	em.ioff = append(em.ioff[:0], 0)
	em.iadj = em.iadj[:0]
	for v := graph.NodeID(0); int(v) < n; v++ {
		ns := em.cur.Neighbors(v)
		if len(em.pending) == 0 || !em.pendTouch[v] {
			em.iadj = append(em.iadj, ns...)
		} else {
			for _, u := range ns {
				if !em.pending[packEdge(v, u)] {
					em.iadj = append(em.iadj, u)
				}
			}
		}
		em.ioff = append(em.ioff, int32(len(em.iadj)))
	}
	for _, s := range em.slots {
		s.batch.Rebind(g)
	}
}

// packEdge packs a canonical (min, max) node pair into one map key.
func packEdge(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// forEachSource runs fn for every source index across the worker
// slots (parallel.ForEach's assignment: source i goes to slot
// i % len(slots)).
func (em *ExpansionMaintainer) forEachSource(fn func(s *repairSlot, i int)) {
	// fn never fails and the background context never ends, so
	// ForEach cannot return an error.
	_ = parallel.ForEach(context.Background(), len(em.slots), len(em.sources), func(slot, i int) error {
		fn(em.slots[slot], i)
		return nil
	})
}

// rebuild re-runs the BFSs of the sources at indices idx on the new
// topology, replacing their distance fields and level counts. The
// indices are sorted into node-ID order (kernels.SortByNode) and cut
// into batches of kernels.BFSBatchWidth lanes, which fan out over the
// slots' BFSBatches. A down source keeps distance 0 and a single level
// of size 1, as in a fresh graph.BFSWorker run.
func (em *ExpansionMaintainer) rebuild(idx []int) {
	kernels.SortByNode(idx, em.sources)
	blocks := parallel.Blocks(len(idx), kernels.BFSBatchWidth)
	err := parallel.ForEach(context.Background(), len(em.slots), len(blocks), func(slot, b int) error {
		batch := idx[blocks[b].Start:blocks[b].End]
		lanes := make([]graph.NodeID, len(batch))
		fields := make([][]int32, len(batch))
		for j, i := range batch {
			lanes[j], fields[j] = em.sources[i], em.dist[i]
		}
		levels, err := em.slots[slot].batch.RunDistances(lanes, fields)
		if err != nil {
			return err
		}
		for j, i := range batch {
			em.levels[i] = levels[j]
		}
		return nil
	})
	if err != nil {
		// The sources were validated at construction and every distance
		// field holds n entries, so the kernel has nothing to refuse.
		panic(fmt.Sprintf("incremental: expansion rebuild: %v", err))
	}
}

// budget is each repair phase's work ceiling. A fresh BFS scans every
// node and both endpoints of every live edge, n + 2m neighbor-list
// entries in the units the repairs count; a phase may spend an eighth
// of that. A repair pays more per entry than the BFS does
// and loses what it spent when it falls back, and in a sweep of the
// fraction from 1 down to 1/32 on the epochs benchmark's graph an
// eighth took the least time (EXPERIMENTS.md).
func (em *ExpansionMaintainer) budget() int {
	return (em.cur.NumNodes() + 2*int(em.cur.NumEdges())) / 8
}

// Sources returns the maintained source list (owned by the maintainer).
func (em *ExpansionMaintainer) Sources() []graph.NodeID { return em.sources }

// Levels returns source i's maintained BFS level counts, valid until
// the next Apply and not to be modified.
func (em *ExpansionMaintainer) Levels(i int) []int64 { return em.levels[i] }

// Apply repairs every source's distance field and level counts across
// one epoch delta. g is the post-advance topology (AdvanceEpochDelta,
// then Degraded) and must stay unchanged until the next Apply.
func (em *ExpansionMaintainer) Apply(d *faults.EpochDelta, g *graph.Graph) {
	obsExpApplies.Inc()
	for _, e := range d.EdgesGained {
		em.pending[packEdge(e.U, e.V)] = true
		em.pendTouch[e.U], em.pendTouch[e.V] = true, true
	}
	em.buildAdjacency(g)
	for _, e := range d.EdgesGained {
		em.pendTouch[e.U], em.pendTouch[e.V] = false, false
	}
	clear(em.pending)

	budget := em.budget()
	for _, s := range em.slots {
		s.budget = budget
		s.repairCounts = repairCounts{}
		s.stale = s.stale[:0]
	}
	em.forEachSource(func(s *repairSlot, i int) {
		if !s.repairDeletions(i, d) {
			s.deletionFallbacks++
			s.stale = append(s.stale, i)
		} else if !s.applyInsertions(i, d) {
			s.insertionFallbacks++
			s.stale = append(s.stale, i)
		}
	})
	em.last = repairCounts{}
	var stale []int
	for _, s := range em.slots {
		em.last.add(s.repairCounts)
		stale = append(stale, s.stale...)
	}
	em.rebuild(stale)
	obsExpRepaired.Add(em.last.repaired)
	obsExpRebuilt.Add(em.last.deletionFallbacks + em.last.insertionFallbacks)
	obsExpOrphans.Add(em.last.orphaned)
}

// scanI lists v's neighbors in the intermediate topology (the new one
// minus pending gained edges), as a read-only slice of the per-Apply
// snapshot, and charges the scan to the phase's work.
func (s *repairSlot) scanI(v graph.NodeID) []graph.NodeID {
	ns := s.em.iadj[s.em.ioff[v]:s.em.ioff[v+1]]
	s.work += len(ns) + 1
	return ns
}

// scanN returns v's new-topology neighbors and charges the scan to the
// phase's work.
func (s *repairSlot) scanN(v graph.NodeID) []graph.NodeID {
	ns := s.em.cur.Neighbors(v)
	s.work += len(ns) + 1
	return ns
}

// overBudget reports whether the current phase has spent its budget,
// and if so drops the phase's partial repair.
func (s *repairSlot) overBudget() bool {
	if s.work <= s.budget {
		return false
	}
	s.reset()
	return true
}

// reset clears every mark the current phase set, whether it finished
// or is being dropped, so the slot is ready for the next repair.
func (s *repairSlot) reset() {
	for _, o := range s.orphans {
		s.orphan[o], s.fixed[o], s.proc[o] = false, false, false
		s.tent[o] = infDist
	}
	for _, v := range s.touched {
		s.tent[v] = infDist
	}
	s.orphans, s.touched, s.queue = s.orphans[:0], s.touched[:0], s.queue[:0]
	for d := s.blo; d <= s.bhi; d++ {
		s.buckets[d] = s.buckets[d][:0]
	}
	s.blo, s.bhi = infDist, -1
}

// bucketPush appends v to the distance-d bucket, growing the bucket
// list as needed.
func (s *repairSlot) bucketPush(d int32, v graph.NodeID) {
	for int(d) >= len(s.buckets) {
		s.buckets = append(s.buckets, nil)
	}
	s.buckets[d] = append(s.buckets[d], v)
	s.blo, s.bhi = min(s.blo, d), max(s.bhi, d)
}

// supportCount returns how many shortest-path parents v retains in the
// intermediate topology: neighbors one level closer that are either
// non-orphaned or marked orphans whose children have not been visited
// yet (those still decrement the memoized count exactly once when they
// are). The first call per repair pass scans v's neighbors; later
// calls are O(1).
func (s *repairSlot) supportCount(v graph.NodeID, dist []int32) int32 {
	if s.supStamp[v] == s.stampGen {
		return s.nsup[v]
	}
	s.supStamp[v] = s.stampGen
	dv := dist[v]
	cnt := int32(0)
	for _, x := range s.scanI(v) {
		if dist[x] == dv-1 && (!s.orphan[x] || !s.proc[x]) {
			cnt++
		}
	}
	s.nsup[v] = cnt
	return cnt
}

// markOrphan flags v and queues it for cascade processing.
func (s *repairSlot) markOrphan(v graph.NodeID) {
	s.orphan[v] = true
	s.orphans = append(s.orphans, v)
	s.queue = append(s.queue, v)
}

// repairDeletions brings source i from the old topology to the
// intermediate one (losses applied, gains still masked): orphan every
// node whose shortest-path tree support died, then re-level the orphan
// region from its clean boundary with a bucketed unit-weight sweep. It
// reports false, with the partial repair dropped, once the phase
// overruns its budget.
func (s *repairSlot) repairDeletions(i int, d *faults.EpochDelta) bool {
	em := s.em
	dist := em.dist[i]
	s.work = 0
	s.stampGen++
	if s.stampGen == math.MaxInt32 {
		clear(s.supStamp)
		s.stampGen = 1
	}

	// Seed orphans from lost edges: the farther endpoint of a
	// parent-child edge that has no surviving parent.
	for _, e := range d.EdgesLost {
		u, v := e.U, e.V
		for r := 0; r < 2; r++ {
			if dist[u] >= 0 && dist[v] == dist[u]+1 && !s.orphan[v] && s.supportCount(v, dist) == 0 {
				s.markOrphan(v)
			}
			u, v = v, u
		}
	}
	// Cascade: an orphaned node may have been its children's only
	// support. Visiting each orphan's children once is sound because a
	// child's memoized count still includes every marked-but-unvisited
	// orphan parent, and each such parent decrements it exactly once
	// when its own children are visited (proc set first, so the child's
	// first-touch scan never counts the current orphan and then gets
	// decremented for it too).
	for head := 0; head < len(s.queue); head++ {
		if s.overBudget() {
			return false
		}
		o := s.queue[head]
		s.proc[o] = true
		do := dist[o]
		for _, c := range s.scanI(o) {
			if s.orphan[c] || dist[c] != do+1 {
				continue
			}
			if s.supStamp[c] == s.stampGen {
				if s.nsup[c]--; s.nsup[c] == 0 {
					s.markOrphan(c)
				}
			} else if s.supportCount(c, dist) == 0 {
				s.markOrphan(c)
			}
		}
	}
	if len(s.orphans) == 0 {
		return true
	}
	levels := em.levels[i]

	// Re-level the orphans from the clean boundary: tentative distance
	// is one past the best non-orphan neighbor, then a bucket sweep
	// fixes nodes in increasing distance and relaxes orphan neighbors.
	// Deletions never shrink a distance, so the sweep starts at the
	// smallest tentative and every fix is final.
	for _, o := range s.orphans {
		t := infDist
		for _, x := range s.scanI(o) {
			if !s.orphan[x] && dist[x] >= 0 && dist[x]+1 < t {
				t = dist[x] + 1
			}
		}
		if t < infDist {
			s.tent[o] = t
			s.bucketPush(t, o)
		}
	}
	remaining := len(s.orphans)
	for di := s.blo; di <= s.bhi && remaining > 0; di++ {
		for bi := 0; bi < len(s.buckets[di]); bi++ {
			if s.overBudget() {
				return false
			}
			o := s.buckets[di][bi]
			if s.fixed[o] || s.tent[o] != di {
				continue
			}
			s.fixed[o] = true
			remaining--
			levels[dist[o]]--
			for int(di) >= len(levels) {
				levels = append(levels, 0)
			}
			levels[di]++
			dist[o] = di
			for _, w := range s.scanI(o) {
				if s.orphan[w] && !s.fixed[w] && s.tent[w] > di+1 {
					s.tent[w] = di + 1
					s.bucketPush(di+1, w)
				}
			}
		}
	}
	// Orphans with no path back are unreachable now.
	for _, o := range s.orphans {
		if !s.fixed[o] {
			levels[dist[o]]--
			dist[o] = -1
		}
	}
	s.repaired++
	s.orphaned += int64(len(s.orphans))
	s.reset()
	em.levels[i] = trimLevels(levels)
	return true
}

// applyInsertions brings source i from the intermediate topology to
// the new one: a bucketed multi-source relaxation seeded at the gained
// edges. Insertions only shrink distances, so each improvement is
// processed at most once per level it lands on. It reports false, with
// the partial repair dropped, once the sweep overruns its budget.
func (s *repairSlot) applyInsertions(i int, d *faults.EpochDelta) bool {
	em := s.em
	dist := em.dist[i]
	s.work = 0
	for _, e := range d.EdgesGained {
		if dist[e.U] >= 0 {
			s.offer(dist, e.V, dist[e.U]+1)
		}
		if dist[e.V] >= 0 {
			s.offer(dist, e.U, dist[e.V]+1)
		}
	}
	if s.bhi < 0 {
		return true
	}
	levels := em.levels[i]
	for di := s.blo; di <= s.bhi; di++ {
		for bi := 0; bi < len(s.buckets[di]); bi++ {
			if s.overBudget() {
				return false
			}
			v := s.buckets[di][bi]
			if s.tent[v] != di || (dist[v] >= 0 && dist[v] <= di) {
				continue
			}
			if dist[v] >= 0 {
				levels[dist[v]]--
			}
			for int(di) >= len(levels) {
				levels = append(levels, 0)
			}
			levels[di]++
			dist[v] = di
			for _, w := range s.scanN(v) {
				s.offer(dist, w, di+1)
			}
		}
	}
	s.repaired++
	s.reset()
	em.levels[i] = trimLevels(levels)
	return true
}

// offer queues v at tentative distance nd when that beats both its
// current distance and any earlier offer this sweep.
func (s *repairSlot) offer(dist []int32, v graph.NodeID, nd int32) {
	if (dist[v] < 0 || dist[v] > nd) && s.tent[v] > nd {
		if s.tent[v] == infDist {
			s.touched = append(s.touched, v)
		}
		s.tent[v] = nd
		s.bucketPush(nd, v)
	}
}

// trimLevels drops trailing empty levels, keeping level 0.
func trimLevels(levels []int64) []int64 {
	for len(levels) > 1 && levels[len(levels)-1] == 0 {
		levels = levels[:len(levels)-1]
	}
	return levels
}

// Measure folds the maintained level counts into the standard
// expansion aggregates by running expansion.Measure with a fully
// populated resume checkpoint: every source is already measured, so
// the call runs no BFS, only the sequential fold, and the Result is
// bit-identical to a from-scratch measurement on the current topology.
func (em *ExpansionMaintainer) Measure(ctx context.Context) (*expansion.Result, error) {
	ck := &expansion.Checkpoint{
		Sources: em.sources,
		Levels:  make([][]int64, len(em.levels)),
	}
	for i, ls := range em.levels {
		ck.Levels[i] = append([]int64(nil), ls...)
	}
	return expansion.Measure(ctx, em.cur, expansion.Config{
		Sources: em.sources,
		Resume:  ck,
	})
}
