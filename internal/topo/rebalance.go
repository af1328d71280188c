package topo

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// KeyFunc maps a stored object to its placement key.
type KeyFunc func(schema string, obj sos.Object) string

// DarshanKey places darshan segments by (producer, job, rank): one
// rank's records stay on one shard, so per-rank diagnosis queries touch
// one owner, and the key is stable across every hop of the pipeline.
func DarshanKey(schema string, o sos.Object) string {
	if schema == dsos.DarshanSchemaName && len(o) > dsos.ColJobID {
		prod, _ := o[dsos.ColProducerName].(string)
		job, _ := o[dsos.ColJobID].(int64)
		rank, _ := o[dsos.ColRank].(int64)
		return prod + "/" + strconv.FormatInt(job, 10) + "/" + strconv.FormatInt(rank, 10)
	}
	return schema + "/" + fmt.Sprint([]any(o))
}

// HashConfig parameterizes a HashCluster.
type HashConfig struct {
	// Seed seeds the consistent-hash ring; same seed + same members =
	// same placement, across restarts and across daemons.
	Seed uint64
	// VNodes is the ring's virtual-node count per member (0 = default).
	VNodes int
	// Replication is the owner-group size R (default 1). Unlike the
	// round-robin cluster, a hash insert acks only when EVERY owner
	// stored it — a down owner is backpressure for the durable pipeline
	// to retry, not a silently thinner replica set.
	Replication int
	// Index is the identity index migrations drain, audit and clean by
	// (required; any index covering the schema works).
	Index string
	// Key extracts an object's placement key (default DarshanKey).
	Key KeyFunc
	// Factory builds a new shard daemon for BeginAdd (required to grow).
	Factory func(name string) (*dsos.Daemon, error)
	// Handoff supplies the WAL backing for one migration's src->dst
	// handoff log (nil = fresh in-memory MemWAL, the sim's virtual disk;
	// a real deployment points this at a spool file).
	Handoff func(dst string) sos.WALStore
	// Clock stamps the event log (nil = zero timestamps; virtual time in
	// the sim zone).
	Clock func() time.Duration
}

// HashCluster places objects on dsos daemons by consistent hash and
// rebalances live. A grow/shrink runs in two phases:
//
//	Begin*: the post-rebalance ring is staged. Inserts dual-write: every
//	  serving owner (ack requires all of them) plus, best-effort, the
//	  staged owners that differ — the fence. Fenced origins are recorded
//	  so the drain never re-copies them.
//	Cutover: each shard streams the objects it is about to stop owning
//	  into a per-destination WAL-backed handoff log; destinations replay
//	  behind the fence (fenced origins skipped); the ring swap is atomic
//	  under the cluster lock; sources then retain only what they still
//	  own (WALs rewritten to match, so restarts cannot resurrect moved
//	  keys). Abort reverts the staged ring and unwinds fenced copies.
//
// Queries always fan out over every member (staged members included) and
// dedup by origin, so a key is readable from whichever side of the fence
// holds it — at every instant of a migration.
type HashCluster struct {
	cfg HashConfig

	mu      sync.Mutex
	ring    *Ring // serving placement
	next    *Ring // staged placement (nil unless migrating)
	members map[string]*dsos.Daemon
	order   []string // sorted member names
	origin  uint64   // cluster-wide insert id allocator

	pendingAdd    string
	pendingRemove string
	fenced        map[uint64]map[string]bool // origin -> staged dests already written
	debt          map[string]map[uint64]bool // dest -> aborted fenced origins to drop

	migrations   uint64
	aborts       uint64
	moved        uint64 // objects copied by handoff replays
	fencedWrites uint64
	log          []TreeEvent
}

// RebalanceStats snapshots the migration counters.
type RebalanceStats struct {
	Members      int
	Migrating    bool
	Migrations   uint64 // completed cutovers
	Aborts       uint64
	Moved        uint64 // objects copied via handoff logs
	FencedWrites uint64
	Debt         int // aborted fenced copies not yet dropped (down dests)
}

// NewHashCluster wraps existing daemons (schemas and WALs already set
// up) with consistent-hash placement.
func NewHashCluster(cfg HashConfig, members []*dsos.Daemon) (*HashCluster, error) {
	if cfg.Index == "" {
		return nil, errors.New("topo: hash cluster needs an identity index")
	}
	if len(members) == 0 {
		return nil, errors.New("topo: hash cluster needs at least one member")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.Key == nil {
		cfg.Key = DarshanKey
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Duration { return 0 }
	}
	h := &HashCluster{
		cfg:     cfg,
		ring:    NewRing(cfg.Seed, cfg.VNodes),
		members: map[string]*dsos.Daemon{},
		debt:    map[string]map[uint64]bool{},
	}
	for _, d := range members {
		if _, ok := h.members[d.Name]; ok {
			return nil, fmt.Errorf("topo: duplicate member %q", d.Name)
		}
		if err := h.ring.Add(d.Name); err != nil {
			return nil, err
		}
		h.members[d.Name] = d
	}
	h.order = h.ring.Members()
	return h, nil
}

func (h *HashCluster) logf(format string, args ...any) {
	h.log = append(h.log, TreeEvent{At: h.cfg.Clock(), Msg: fmt.Sprintf(format, args...)})
}

// Ring returns the serving ring (read-only use).
func (h *HashCluster) Ring() *Ring {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ring
}

// Members returns the sorted member names (staged members included).
func (h *HashCluster) Members() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.order))
	copy(out, h.order)
	return out
}

// Daemon returns a member by name (nil if absent).
func (h *HashCluster) Daemon(name string) *dsos.Daemon {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.members[name]
}

// Insert places one object. See InsertBatch.
func (h *HashCluster) Insert(schema string, obj sos.Object) error {
	return h.InsertBatch(schema, []sos.Object{obj})
}

// InsertBatch places a batch all-or-nothing at admission: every serving
// owner of every object must be up before anything is written, so a
// failed batch leaves no partial copies for a redelivery to duplicate.
// Each object is stamped with a fresh origin id (placement queries dedup
// by it) and acked only once all its serving owners stored it; during a
// migration the staged owners are fenced in best-effort — a staged
// owner that misses the fence is covered by the cutover drain.
func (h *HashCluster) InsertBatch(schema string, objs []sos.Object) error {
	if len(objs) == 0 {
		return nil
	}
	h.mu.Lock()
	repl := h.cfg.Replication
	type placement struct {
		owners      []*dsos.Daemon // serving owners (ack set)
		staged      []*dsos.Daemon // staged-only dests (fence set)
		stagedNames []string
	}
	plan := make([]placement, len(objs))
	for i, o := range objs {
		key := h.cfg.Key(schema, o)
		ownerNames := h.ring.Owners(key, repl)
		if len(ownerNames) == 0 {
			h.mu.Unlock()
			return errors.New("topo: hash cluster has no members")
		}
		for _, name := range ownerNames {
			d := h.members[name]
			if d == nil || !d.Up() {
				h.mu.Unlock()
				return fmt.Errorf("topo: owner %s of key %q is down", name, key)
			}
			plan[i].owners = append(plan[i].owners, d)
		}
		if h.next != nil {
			for _, name := range h.next.Owners(key, repl) {
				dup := false
				for _, on := range ownerNames {
					if on == name {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				if d := h.members[name]; d != nil {
					plan[i].staged = append(plan[i].staged, d)
					plan[i].stagedNames = append(plan[i].stagedNames, name)
				}
			}
		}
	}
	base := h.origin
	h.origin += uint64(len(objs))
	h.mu.Unlock()

	for i, o := range objs {
		origin := base + uint64(i) + 1
		for _, d := range plan[i].owners {
			if err := d.InsertOrigin(schema, o, origin); err != nil {
				return err
			}
		}
		for j, d := range plan[i].staged {
			if !d.Up() {
				continue // the drain will cover it
			}
			if err := d.InsertOrigin(schema, o, origin); err != nil {
				continue
			}
			h.mu.Lock()
			if h.fenced != nil {
				set := h.fenced[origin]
				if set == nil {
					set = map[string]bool{}
					h.fenced[origin] = set
				}
				set[plan[i].stagedNames[j]] = true
				h.fencedWrites++
			}
			h.mu.Unlock()
		}
	}
	return nil
}

// keyAttrs resolves the identity index via the first live member.
func (h *HashCluster) keyAttrs(order []string, members map[string]*dsos.Daemon) ([]int, string, error) {
	var firstErr error
	for _, name := range order {
		attrs, schema, err := members[name].KeyAttrs(h.cfg.Index)
		if err == nil {
			return attrs, schema, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, "", fmt.Errorf("topo: no live member to resolve index %q: %w", h.cfg.Index, firstErr)
}

// Query fans the range query out over every member (staged members
// included, so a mid-migration key is found on whichever side holds it),
// dedups by origin and merges in index-key order. Availability problems
// are reported through the QueryInfo: Partial is true only when some
// owner group of the serving ring is entirely down.
func (h *HashCluster) Query(index string, from, to sos.Key) ([]sos.Object, dsos.QueryInfo, error) {
	h.mu.Lock()
	order := make([]string, len(h.order))
	copy(order, h.order)
	members := make(map[string]*dsos.Daemon, len(h.members))
	for k, v := range h.members {
		members[k] = v
	}
	ring := h.ring
	repl := h.cfg.Replication
	h.mu.Unlock()

	type result struct {
		objs    []sos.Object
		origins []uint64
		err     error
	}
	results := make([]result, len(order))
	var wg sync.WaitGroup
	for i, name := range order {
		wg.Add(1)
		go func(i int, d *dsos.Daemon) {
			defer wg.Done()
			objs, origins, err := d.RangeOrigins(index, from, to)
			results[i] = result{objs, origins, err}
		}(i, members[name])
	}
	wg.Wait()

	var info dsos.QueryInfo
	downSet := map[string]bool{}
	for i, r := range results {
		if r.err != nil {
			info.Failed = append(info.Failed, order[i])
			downSet[order[i]] = true
		}
	}
	// Only a failed member can make a group unreadable, so the owner
	// groups are consulted only when some member failed.
	var groups [][]string
	if len(downSet) > 0 {
		groups = ring.Groups(repl)
	}
	for _, g := range groups {
		allDown := true
		for _, m := range g {
			if !downSet[m] {
				allDown = false
				break
			}
		}
		if allDown {
			info.LostGroups = append(info.LostGroups, g)
		}
	}
	info.Partial = len(info.LostGroups) > 0

	attrs, _, err := h.keyAttrs(order, members)
	if err != nil {
		return nil, info, err
	}
	type row struct {
		obj    sos.Object
		key    sos.Key
		member int
		pos    int
	}
	var rows []row
	seen := map[uint64]bool{}
	for i, r := range results {
		for p, o := range r.objs {
			origin := r.origins[p]
			if origin != 0 {
				if seen[origin] {
					continue
				}
				seen[origin] = true
			}
			k := make(sos.Key, 0, len(attrs))
			for _, a := range attrs {
				k = append(k, o[a])
			}
			rows = append(rows, row{obj: o, key: k, member: i, pos: p})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if c := sos.CompareKeys(rows[i].key, rows[j].key); c != 0 {
			return c < 0
		}
		if rows[i].member != rows[j].member {
			return rows[i].member < rows[j].member
		}
		return rows[i].pos < rows[j].pos
	})
	out := make([]sos.Object, len(rows))
	for i, r := range rows {
		out[i] = r.obj
	}
	return out, info, nil
}

// Migrating reports whether a rebalance is staged but not cut over.
func (h *HashCluster) Migrating() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next != nil
}

// BeginAdd stages a grow: the named shard is built by the factory,
// joins queries and the dual-write fence immediately, and owns its key
// ranges after Cutover.
func (h *HashCluster) BeginAdd(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next != nil {
		return errors.New("topo: rebalance already in progress")
	}
	if h.cfg.Factory == nil {
		return errors.New("topo: hash cluster has no shard factory; cannot grow")
	}
	if _, ok := h.members[name]; ok {
		return fmt.Errorf("topo: member %q already present", name)
	}
	d, err := h.cfg.Factory(name)
	if err != nil {
		return err
	}
	next := h.ring.Clone()
	if err := next.Add(name); err != nil {
		return err
	}
	h.members[name] = d
	i := sort.SearchStrings(h.order, name)
	h.order = append(h.order, "")
	copy(h.order[i+1:], h.order[i:])
	h.order[i] = name
	h.next = next
	h.pendingAdd = name
	h.fenced = map[uint64]map[string]bool{}
	h.logf("begin grow +%s (members %d -> %d)", name, len(h.order)-1, len(h.order))
	return nil
}

// BeginRemove stages a shrink: the named shard keeps serving (it still
// owns its keys) but every insert of a moving key is fenced to the new
// owners, and Cutover drains what remains before the shard leaves.
func (h *HashCluster) BeginRemove(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next != nil {
		return errors.New("topo: rebalance already in progress")
	}
	d := h.members[name]
	if d == nil {
		return fmt.Errorf("topo: member %q not present", name)
	}
	if len(h.order) == 1 {
		return errors.New("topo: cannot remove the last member")
	}
	if !d.Up() {
		return fmt.Errorf("topo: member %q is down; cannot drain it", name)
	}
	next := h.ring.Clone()
	if err := next.Remove(name); err != nil {
		return err
	}
	h.next = next
	h.pendingRemove = name
	h.fenced = map[uint64]map[string]bool{}
	h.logf("begin shrink -%s (members %d -> %d)", name, len(h.order), len(h.order)-1)
	return nil
}

// Cutover completes the staged rebalance: drain, replay, atomic ring
// swap, source cleanup. On error the migration is still staged — the
// caller retries (after restarts) or calls Abort. Runs under the cluster
// lock, so inserts and queries observe either the old world or the new,
// never a half-swapped ring.
func (h *HashCluster) Cutover() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next == nil {
		return errors.New("topo: no rebalance in progress")
	}
	repl := h.cfg.Replication
	attrs, schema, err := h.keyAttrs(h.order, h.members)
	if err != nil {
		return err
	}
	_ = attrs

	// Drain: walk every source; any object whose staged owners include a
	// member that does not already hold it goes into that destination's
	// handoff log. The fence set keeps dual-written (and previously
	// replayed) origins out; drained tracks this pass only, and commits
	// into the fence per destination AFTER that destination's replay
	// succeeds — so a cutover that dies mid-way re-drains exactly the
	// copies that never landed, and only those.
	handoffs := map[string]*sos.WAL{}
	stores := map[string]sos.WALStore{}
	drained := map[uint64]map[string]bool{}
	perDst := map[string][]uint64{}
	for _, src := range h.order {
		d := h.members[src]
		if !d.Up() {
			return fmt.Errorf("topo: cutover: source %s is down", src)
		}
		err := d.IterOrigins(h.cfg.Index, nil, func(o sos.Object, origin uint64) bool {
			key := h.cfg.Key(schema, o)
			oldOwners := h.ring.Owners(key, repl)
			holds := func(name string) bool {
				for _, m := range oldOwners {
					if m == name {
						return true
					}
				}
				return false
			}
			if !holds(src) {
				// A lingering copy (aborted fence debt); the owner drains it.
				return true
			}
			for _, dst := range h.next.Owners(key, repl) {
				if dst == src || holds(dst) {
					continue
				}
				if origin != 0 && (h.fenced[origin][dst] || drained[origin][dst]) {
					continue
				}
				w := handoffs[dst]
				if w == nil {
					var st sos.WALStore
					if h.cfg.Handoff != nil {
						st = h.cfg.Handoff(dst)
					} else {
						st = sos.NewMemWAL()
					}
					w = sos.NewWAL(st)
					handoffs[dst] = w
					stores[dst] = st
				}
				if err := w.Append(schema, o, origin); err != nil {
					return false
				}
				if origin != 0 {
					set := drained[origin]
					if set == nil {
						set = map[string]bool{}
						drained[origin] = set
					}
					set[dst] = true
					perDst[dst] = append(perDst[dst], origin)
				}
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("topo: cutover drain %s: %w", src, err)
		}
	}

	// Replay behind the fence, destinations in sorted order.
	dsts := make([]string, 0, len(handoffs))
	for dst := range handoffs {
		dsts = append(dsts, dst)
	}
	sort.Strings(dsts)
	movedNow := uint64(0)
	for _, dst := range dsts {
		d := h.members[dst]
		if d == nil || !d.Up() {
			return fmt.Errorf("topo: cutover: destination %s is down", dst)
		}
		recs, _, err := sos.ReplayWAL(stores[dst], func(schema string, obj sos.Object, origin uint64) error {
			return d.InsertOrigin(schema, obj, origin)
		})
		if err != nil {
			return fmt.Errorf("topo: cutover replay into %s: %w", dst, err)
		}
		// Commit this destination's copies into the fence: a retried
		// cutover must not hand them off again.
		for _, origin := range perDst[dst] {
			set := h.fenced[origin]
			if set == nil {
				set = map[string]bool{}
				h.fenced[origin] = set
			}
			set[dst] = true
		}
		movedNow += uint64(recs)
	}

	// Atomic swap.
	h.ring = h.next
	h.next = nil
	removed := h.pendingRemove
	h.pendingAdd, h.pendingRemove = "", ""
	h.fenced = nil
	h.moved += movedNow
	h.migrations++

	// Cleanup: sources retain exactly what they still own; the removed
	// member leaves the cluster entirely.
	order := make([]string, len(h.order))
	copy(order, h.order)
	for _, name := range order {
		if name == removed {
			delete(h.members, name)
			i := sort.SearchStrings(h.order, name)
			h.order = append(h.order[:i], h.order[i+1:]...)
			continue
		}
		name := name
		d := h.members[name]
		dropped, err := d.RetainWhere(h.cfg.Index, func(o sos.Object, origin uint64) bool {
			key := h.cfg.Key(schema, o)
			for _, m := range h.ring.Owners(key, repl) {
				if m == name {
					return true
				}
			}
			return false
		})
		if err != nil {
			return fmt.Errorf("topo: post-cutover cleanup %s: %w", name, err)
		}
		if dropped > 0 {
			h.logf("cutover: %s released %d moved objects", name, dropped)
		}
	}
	h.logf("cutover complete: moved %d objects, ring %v", movedNow, h.ring.Members())
	return h.settleDebtLocked()
}

// Abort unwinds a staged rebalance: the serving ring stays, fenced
// copies on non-owners are dropped (down destinations become debt,
// settled later via Settle), and a staged grow's shard is discarded.
func (h *HashCluster) Abort() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next == nil {
		return errors.New("topo: no rebalance in progress")
	}
	// Aggregate fenced copies per destination.
	for origin, dests := range h.fenced {
		for dst := range dests {
			if dst == h.pendingAdd {
				continue // the whole shard is being discarded
			}
			set := h.debt[dst]
			if set == nil {
				set = map[uint64]bool{}
				h.debt[dst] = set
			}
			set[origin] = true
		}
	}
	if h.pendingAdd != "" {
		delete(h.members, h.pendingAdd)
		i := sort.SearchStrings(h.order, h.pendingAdd)
		if i < len(h.order) && h.order[i] == h.pendingAdd {
			h.order = append(h.order[:i], h.order[i+1:]...)
		}
	}
	h.logf("abort rebalance (add=%q remove=%q)", h.pendingAdd, h.pendingRemove)
	h.next = nil
	h.pendingAdd, h.pendingRemove = "", ""
	h.fenced = nil
	h.aborts++
	return h.settleDebtLocked()
}

// Settle retries dropping aborted fenced copies from destinations that
// were down when the abort ran — call it once the fleet is restored.
func (h *HashCluster) Settle() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.settleDebtLocked()
}

func (h *HashCluster) settleDebtLocked() error {
	if len(h.debt) == 0 {
		return nil
	}
	dsts := make([]string, 0, len(h.debt))
	for dst := range h.debt {
		dsts = append(dsts, dst)
	}
	sort.Strings(dsts)
	var firstErr error
	for _, dst := range dsts {
		d := h.members[dst]
		if d == nil {
			delete(h.debt, dst)
			continue
		}
		if !d.Up() {
			continue // retried on the next Settle
		}
		drop := h.debt[dst]
		_, err := d.RetainWhere(h.cfg.Index, func(_ sos.Object, origin uint64) bool {
			return !drop[origin]
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		delete(h.debt, dst)
	}
	return firstErr
}

// Stats snapshots the rebalance counters.
func (h *HashCluster) Stats() RebalanceStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	debt := 0
	for _, set := range h.debt {
		debt += len(set)
	}
	return RebalanceStats{
		Members:      len(h.order),
		Migrating:    h.next != nil,
		Migrations:   h.migrations,
		Aborts:       h.aborts,
		Moved:        h.moved,
		FencedWrites: h.fencedWrites,
		Debt:         debt,
	}
}

// Events returns the rebalance event log.
func (h *HashCluster) Events() []TreeEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]TreeEvent, len(h.log))
	copy(out, h.log)
	return out
}

// AuditPlacement verifies the post-cutover ownership invariant: every
// stored origin lives on exactly its ring owners — no copy on a shard
// that does not own it, no owner missing its copy, no shard holding an
// origin twice. Returns the violations (empty = clean).
func (h *HashCluster) AuditPlacement() ([]string, error) {
	h.mu.Lock()
	if h.next != nil {
		h.mu.Unlock()
		return nil, errors.New("topo: audit during a migration is meaningless; cut over or abort first")
	}
	order := make([]string, len(h.order))
	copy(order, h.order)
	members := make(map[string]*dsos.Daemon, len(h.members))
	for k, v := range h.members {
		members[k] = v
	}
	ring := h.ring
	repl := h.cfg.Replication
	h.mu.Unlock()

	attrs, schema, err := h.keyAttrs(order, members)
	if err != nil {
		return nil, err
	}
	_ = attrs
	type track struct {
		obj     sos.Object
		holders []string
		dups    int
	}
	origins := map[uint64]*track{}
	var ids []uint64
	for _, name := range order {
		seenHere := map[uint64]bool{}
		err := members[name].IterOrigins(h.cfg.Index, nil, func(o sos.Object, origin uint64) bool {
			if origin == 0 {
				return true
			}
			tr := origins[origin]
			if tr == nil {
				tr = &track{obj: o}
				origins[origin] = tr
				ids = append(ids, origin)
			}
			if seenHere[origin] {
				tr.dups++
			} else {
				seenHere[origin] = true
				tr.holders = append(tr.holders, name)
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("topo: audit %s: %w", name, err)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var violations []string
	for _, origin := range ids {
		tr := origins[origin]
		if tr.dups > 0 {
			violations = append(violations,
				fmt.Sprintf("origin %d stored %d extra times on one shard", origin, tr.dups))
		}
		key := h.cfg.Key(schema, tr.obj)
		want := append([]string(nil), ring.Owners(key, repl)...)
		sort.Strings(want)
		got := append([]string(nil), tr.holders...)
		sort.Strings(got)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			violations = append(violations,
				fmt.Sprintf("origin %d (key %q) held by %v, owned by %v", origin, key, got, want))
		}
	}
	return violations, nil
}

// HashStore adapts a HashCluster to the ldms store-plugin contract
// (Name/Store), turning connector messages into darshan rows. A
// message whose owners are unreachable fails as a unit — admission is
// checked for the whole batch before anything is written — so the
// consumer-acked ingest pump naks it and redelivery cannot duplicate a
// half-stored message. Rows are built through a dsos.RowArena, as
// ldms.DSOSStore builds them, so the mutex serializes stores.
type HashStore struct {
	h *HashCluster

	mu        sync.Mutex
	arena     *dsos.RowArena // row backings + cached boxes; made on first Store (guarded by mu)
	objs      []sos.Object   // reused per-message row batch (guarded by mu)
	stored    uint64
	failed    uint64
	unstamped uint64
}

// NewHashStore wraps the cluster.
func NewHashStore(h *HashCluster) *HashStore { return &HashStore{h: h} }

// Name implements the store-plugin contract.
func (s *HashStore) Name() string { return "dsos_hash" }

// Store implements the store-plugin contract.
func (s *HashStore) Store(m streams.Message) error {
	msg, err := event.Fields(m)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.unstamped++
		return nil // not a connector payload; nothing to place
	}
	// The insert is synchronous and keeps the rows, not the batch slice,
	// so the slice is reused; the rows themselves are arena memory the
	// store retains. The arena's caches are sized for steady ingest, so
	// a store that never receives a message never pays for them.
	if s.arena == nil {
		s.arena = dsos.NewRowArena()
	}
	s.objs = s.arena.AppendObjects(s.objs[:0], msg)
	if len(s.objs) == 0 {
		return nil
	}
	if err := s.h.InsertBatch(dsos.DarshanSchemaName, s.objs); err != nil {
		s.failed++
		return err
	}
	s.stored += uint64(len(s.objs))
	return nil
}

// Stats returns (objects stored, failed messages, unparseable messages).
func (s *HashStore) Stats() (uint64, uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stored, s.failed, s.unstamped
}
