package incremental

import (
	"context"
	"fmt"
	"math"
	"slices"

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
// shortest-path parent died, in a level-order cascade, and re-leveling
// them from the clean boundary; then insertions on the new topology as
// a bucketed multi-source relaxation seeded at the gained edges.
// Distances only grow in the first phase and only shrink in the
// second, which is what makes both sweeps linear in the size of the
// affected region rather than the graph. A source whose own aliveness
// flipped needs no special case: going down orphans its whole tree,
// coming up relaxes it.
//
// Each phase has a work budget (see budget). A phase that exceeds it
// drops the source's partial repair and skips the insertion phase, and
// the source is marked for a fresh BFS on the new topology. Apply cuts
// the sources, in node-ID order (kernels.SortByNode), into runs of
// repairRunLen and repairs each run in order: each fallback halves the
// next source's budget, and each finished repair restores the full
// one. The community generators number each community's nodes
// consecutively, so a heavy delta (a lost bridge) dooms neighbouring
// sources together, and a run of them then spends a few budgets instead
// of one each; the rule is exact on any numbering. The marked sources
// are then re-run 64 at a time through kernels.BFSBatch.RunDistances,
// cut in node-ID order, where nearby sources share most of each level's
// scan; the initial BFSs run the same way.
//
// The runs, ⌈k/16⌉ tasks for k sources (64 at 1,024, 8 at 128), and
// then the rebuild batches fan out over the workers with
// parallel.ForEach, one set of repair scratch and one BFSBatch per
// worker slot. Every Apply is handed the epoch's CSR (the engine's
// faults.Model.Degraded) and filters the intermediate topology from it
// before the fan-out; both are only read during it. Only the task that
// owns a run writes its sources' distance fields and levels, and a
// run's outcomes depend only on its sources' state and the delta, so
// the maintained state and the repair counts are the same at any
// worker count and in any source order.
//
// The maintained state is exact: after every Apply, each source's
// distance field and level counts are bit-identical to a fresh BFS on
// the current topology, and Measure folds the counts through
// expansion.Measure's resume path so the aggregate Result is
// bit-identical to the from-scratch measurement. Measure hands the
// maintained level slices to that Result without copying them; a
// repair clones a source's slice before its first change after a
// Measure, so every Result keeps its levels.
//
// Memory is O(len(sources) · n) for the distance fields plus about
// 39·n bytes of scratch per worker (32·n of them the BFSBatch). A field
// holds one entry per node, in 16 bits on a graph of at most 32,768
// nodes, where no distance exceeds 32,767, and in 32 bits above
// (kernels.Fits); the width is fixed at construction from the node
// count. On the epochs benchmark's 1,024 sources and 10⁴ nodes the
// fields take 20.5 MB instead of 41.0 MB, and its peak RSS fell from
// 104.1 to 62.4 MB (EXPERIMENTS.md, "16-bit distance fields"). Not safe
// for concurrent use.
type ExpansionMaintainer struct {
	sources []graph.NodeID
	// order lists the source indices in node-ID order, cut into runs.
	order []int
	// fields holds every source's distance field, at one width.
	fields distFields
	levels [][]int64
	// shared marks the level slices the last Measure handed out.
	shared []bool

	// pending holds the delta's gained edges while buildAdjacency masks
	// them out of the intermediate snapshot; pendTouch marks their
	// endpoints, so the build skips the map lookup for every other node.
	pending   map[uint64]bool
	pendTouch []bool

	// The topologies every repair within one Apply scans, as plain
	// slice walks: cur is the epoch's CSR as the last Apply (or the
	// constructor) was handed it, which the rebuild batches read too;
	// ioff/iadj hold the intermediate one (cur minus pending gains).
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
	// halved counts the sources whose repair started under a halved
	// budget, and restored those of them that finished.
	halved, restored int64
}

// add accumulates o into c.
func (c *repairCounts) add(o repairCounts) {
	c.repaired += o.repaired
	c.orphaned += o.orphaned
	c.deletionFallbacks += o.deletionFallbacks
	c.insertionFallbacks += o.insertionFallbacks
	c.halved += o.halved
	c.restored += o.restored
}

// repairSlot is one worker's repair scratch. Between repairs every
// mark is clear: cand, orphan and fixed false, tent infDist, and the
// buckets and lists empty.
type repairSlot struct {
	em *ExpansionMaintainer

	// batch re-runs marked sources' BFSs, rebound to each Apply's cur.
	batch *kernels.BFSBatch
	// stale lists the sources whose repair this slot marked in the
	// current Apply.
	stale []int

	// cand marks the nodes the orphan cascade examines, listed in
	// cands; orphan marks those that lost every parent.
	cand    []bool
	cands   []graph.NodeID
	orphan  []bool
	fixed   []bool
	tent    []int32
	orphans []graph.NodeID
	touched []graph.NodeID
	// buckets[d] queues nodes at distance d, the cascade's candidates
	// and the sweeps' tentative distances; blo and bhi bound the
	// buckets in use (infDist and -1 when none is).
	buckets  [][]graph.NodeID
	blo, bhi int32

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
		order:     make([]int, len(sources)),
		fields:    newFields(len(sources), n),
		levels:    make([][]int64, len(sources)),
		shared:    make([]bool, len(sources)),
		pending:   make(map[uint64]bool),
		pendTouch: make([]bool, n),
		// Apply's largest fan-out is one task per run of sources.
		slots: make([]*repairSlot, parallel.Workers(workers, (len(sources)+repairRunLen-1)/repairRunLen)),
	}
	for k := range em.slots {
		s := &repairSlot{
			em:     em,
			batch:  new(kernels.BFSBatch),
			cand:   make([]bool, n),
			orphan: make([]bool, n),
			fixed:  make([]bool, n),
			tent:   make([]int32, n),
			blo:    infDist,
			bhi:    -1,
		}
		for v := range s.tent {
			s.tent[v] = infDist
		}
		em.slots[k] = s
	}
	em.buildAdjacency(g)
	for i := range em.order {
		em.order[i] = i
	}
	kernels.SortByNode(em.order, em.sources)
	em.rebuild(em.order)
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

// rebuild re-runs, on the new topology, the BFSs of the sources at
// indices idx, which are in node-ID order, replacing their distance
// fields and level counts, in batches of kernels.BFSBatchWidth lanes
// over the slots' BFSBatches. A down source keeps distance 0 and a
// single level of size 1, as in a fresh graph.BFSWorker run.
func (em *ExpansionMaintainer) rebuild(idx []int) {
	blocks := parallel.Blocks(len(idx), kernels.BFSBatchWidth)
	err := parallel.ForEach(context.Background(), len(em.slots), len(blocks), func(slot, b int) error {
		batch := idx[blocks[b].Start:blocks[b].End]
		levels, err := em.fields.runBatch(em.slots[slot].batch, em.sources, batch)
		if err != nil {
			return err
		}
		for j, i := range batch {
			em.levels[i], em.shared[i] = levels[j], false
		}
		return nil
	})
	if err != nil {
		// The sources were validated at construction and every distance
		// field holds n entries of a width that fits n, so the kernel has
		// nothing to refuse.
		panic(fmt.Sprintf("incremental: expansion rebuild: %v", err))
	}
}

// distFields is every source's distance field at one entry width:
// fieldsOf[int16] on graphs of at most 32,768 nodes and fieldsOf[int32]
// above (newFields). The repairs and rebuilds are generic over the
// width, so both widths run one implementation.
type distFields interface {
	// repairRun repairs the sources at indices run on slot s
	// (fieldsOf.repairRun).
	repairRun(s *repairSlot, run []int, d *faults.EpochDelta, full int)
	// runBatch re-runs the BFSs of sources[i] for every i in idx, at
	// most kernels.BFSBatchWidth of them, on b: it overwrites their
	// fields and returns their level counts in idx order.
	runBatch(b *kernels.BFSBatch, sources []graph.NodeID, idx []int) ([][]int64, error)
}

// fieldsOf holds one n-entry distance field per source.
type fieldsOf[D kernels.Distance] [][]D

// newFields allocates k distance fields of n entries, each entry the
// narrowest width that holds every distance on an n-node graph.
func newFields(k, n int) distFields {
	if kernels.Fits[int16](n) {
		return allocFields[int16](k, n)
	}
	return allocFields[int32](k, n)
}

// allocFields allocates k fields of n entries of D.
func allocFields[D kernels.Distance](k, n int) fieldsOf[D] {
	f := make(fieldsOf[D], k)
	for i := range f {
		f[i] = make([]D, n)
	}
	return f
}

// runBatch is distFields.runBatch through kernels.RunDistances.
func (f fieldsOf[D]) runBatch(b *kernels.BFSBatch, sources []graph.NodeID, idx []int) ([][]int64, error) {
	lanes := make([]graph.NodeID, len(idx))
	fields := make([][]D, len(idx))
	for j, i := range idx {
		lanes[j], fields[j] = sources[i], f[i]
	}
	return kernels.RunDistances(b, lanes, fields)
}

// budget is each repair phase's full work ceiling. A fresh BFS scans
// every node and both endpoints of every live edge, n + 2m
// neighbor-list entries in the units the repairs count; a phase may
// spend an eighth of that, less after fallbacks in its run (Apply).
// Under halving, Apply over the epochs benchmark's window took a median
// 2.66 s of CPU at an eighth, 2.74 s at a quarter, 2.98 s at a
// sixteenth and 3.41 s at a half (EXPERIMENTS.md, "Doomed repairs").
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

	for _, s := range em.slots {
		s.repairCounts = repairCounts{}
		s.stale = s.stale[:0]
	}
	budget := em.budget()
	runs := parallel.Blocks(len(em.order), repairRunLen)
	// No task fails and the context never ends: ForEach returns nil.
	_ = parallel.ForEach(context.Background(), len(em.slots), len(runs), func(slot, r int) error {
		em.fields.repairRun(em.slots[slot], em.order[runs[r].Start:runs[r].End], d, budget)
		return nil
	})
	em.last = repairCounts{}
	var stale []int
	for _, s := range em.slots {
		em.last.add(s.repairCounts)
		stale = append(stale, s.stale...)
	}
	kernels.SortByNode(stale, em.sources)
	em.rebuild(stale)
	obsExpRepaired.Add(em.last.repaired)
	obsExpRebuilt.Add(em.last.deletionFallbacks + em.last.insertionFallbacks)
	obsExpOrphans.Add(em.last.orphaned)
}

// repairRunLen is how many sources, consecutive in node-ID order, one
// repair task takes in turn (fieldsOf.repairRun; EXPERIMENTS.md, "Run
// length").
const repairRunLen = 16

// repairRun repairs the sources at indices run, in order, on slot s,
// and marks those that overrun their budget for the rebuild. The first
// starts with the full budget; each fallback halves the next source's
// budget, and each finished repair restores the full one.
func (f fieldsOf[D]) repairRun(s *repairSlot, run []int, d *faults.EpochDelta, full int) {
	s.budget = full
	for _, i := range run {
		if s.budget < full {
			s.halved++
		}
		switch {
		case !repairDeletions(s, i, f[i], d):
			s.deletionFallbacks++
		case !applyInsertions(s, i, f[i], d):
			s.insertionFallbacks++
		default:
			if s.budget < full {
				s.restored++
			}
			s.budget = full
			continue
		}
		s.stale = append(s.stale, i)
		s.budget /= 2
	}
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
	for _, v := range s.cands {
		s.cand[v] = false
	}
	for _, o := range s.orphans {
		s.orphan[o], s.fixed[o] = false, false
		s.tent[o] = infDist
	}
	for _, v := range s.touched {
		s.tent[v] = infDist
	}
	s.cands, s.orphans, s.touched = s.cands[:0], s.orphans[:0], s.touched[:0]
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

// candidate queues v, at distance dist[v], for the orphan cascade
// unless it already is.
func candidate[D kernels.Distance](s *repairSlot, v graph.NodeID, dist []D) {
	if !s.cand[v] {
		s.cand[v] = true
		s.cands = append(s.cands, v)
		s.bucketPush(int32(dist[v]), v)
	}
}

// ownLevels returns source i's level counts for a change in place,
// cloning them first if the last Measure handed them out.
func (em *ExpansionMaintainer) ownLevels(i int) []int64 {
	if em.shared[i] {
		em.levels[i], em.shared[i] = slices.Clone(em.levels[i]), false
	}
	return em.levels[i]
}

// repairDeletions brings source i, whose distance field is dist, from
// the old topology to the intermediate one (losses applied, gains still
// masked): orphan every node whose shortest-path tree support died,
// then re-level the orphan region from its clean boundary with a
// bucketed unit-weight sweep. It reports false, with the partial repair
// dropped, once the phase overruns its budget. Levels are int32 here,
// as are the comparisons of a field entry with one, so no addition
// wraps in 16 bits.
func repairDeletions[D kernels.Distance](s *repairSlot, i int, dist []D, d *faults.EpochDelta) bool {
	em := s.em
	s.work = 0

	// Seed: the farther endpoint of every lost parent-child edge.
	for _, e := range d.EdgesLost {
		if du, dv := int32(dist[e.U]), int32(dist[e.V]); du >= 0 && dv == du+1 {
			candidate(s, e.V, dist)
		} else if dv >= 0 && du == dv+1 {
			candidate(s, e.U, dist)
		}
	}
	// Cascade in level order: a candidate at level L is an orphan iff
	// no parent (neighbor at L−1) is un-orphaned, and an orphan's
	// children join level L+1. Level L−1 is decided before L is
	// examined, so each node is examined once and its scan stops at
	// the first surviving parent.
	for di := s.blo; di <= s.bhi; di++ {
	examine:
		for _, v := range s.buckets[di] {
			if s.overBudget() {
				return false
			}
			ns := s.scanI(v)
			for _, x := range ns {
				if int32(dist[x]) == di-1 && !s.orphan[x] {
					continue examine
				}
			}
			s.orphan[v] = true
			s.orphans = append(s.orphans, v)
			for _, c := range ns {
				if int32(dist[c]) == di+1 {
					candidate(s, c, dist)
				}
			}
		}
		s.buckets[di] = s.buckets[di][:0]
	}
	s.blo, s.bhi = infDist, -1
	if len(s.orphans) == 0 {
		s.reset()
		return true
	}
	levels := em.ownLevels(i)

	// Re-level the orphans from the clean boundary: tentative distance
	// is one past the best non-orphan neighbor, then a bucket sweep
	// fixes nodes in increasing distance and relaxes orphan neighbors.
	// Deletions never shrink a distance, so the sweep starts at the
	// smallest tentative and every fix is final.
	for _, o := range s.orphans {
		t := infDist
		for _, x := range s.scanI(o) {
			if dx := int32(dist[x]); !s.orphan[x] && dx >= 0 && dx+1 < t {
				t = dx + 1
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
			dist[o] = D(di)
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

// applyInsertions brings source i, whose distance field is dist, from
// the intermediate topology to the new one: a bucketed multi-source
// relaxation seeded at the gained edges. Insertions only shrink
// distances, so each improvement is processed at most once per level it
// lands on. It reports false, with the partial repair dropped, once the
// sweep overruns its budget. As in repairDeletions, levels and the
// comparisons with them are int32.
func applyInsertions[D kernels.Distance](s *repairSlot, i int, dist []D, d *faults.EpochDelta) bool {
	em := s.em
	s.work = 0
	for _, e := range d.EdgesGained {
		if du := int32(dist[e.U]); du >= 0 {
			offer(s, dist, e.V, du+1)
		}
		if dv := int32(dist[e.V]); dv >= 0 {
			offer(s, dist, e.U, dv+1)
		}
	}
	if s.bhi < 0 {
		return true
	}
	levels := em.ownLevels(i)
	for di := s.blo; di <= s.bhi; di++ {
		for bi := 0; bi < len(s.buckets[di]); bi++ {
			if s.overBudget() {
				return false
			}
			v := s.buckets[di][bi]
			dv := int32(dist[v])
			if s.tent[v] != di || (dv >= 0 && dv <= di) {
				continue
			}
			if dv >= 0 {
				levels[dv]--
			}
			for int(di) >= len(levels) {
				levels = append(levels, 0)
			}
			levels[di]++
			dist[v] = D(di)
			for _, w := range s.scanN(v) {
				offer(s, dist, w, di+1)
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
func offer[D kernels.Distance](s *repairSlot, dist []D, v graph.NodeID, nd int32) {
	if dv := int32(dist[v]); (dv < 0 || dv > nd) && s.tent[v] > nd {
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
// The checkpoint carries the maintained level slices themselves, which
// the Result keeps: from here on a repair clones a slice before it
// changes it (ownLevels).
func (em *ExpansionMaintainer) Measure(ctx context.Context) (*expansion.Result, error) {
	for i := range em.shared {
		em.shared[i] = true
	}
	return expansion.Measure(ctx, em.cur, expansion.Config{
		Sources: em.sources,
		Resume:  &expansion.Checkpoint{Sources: em.sources, Levels: em.levels},
	})
}
