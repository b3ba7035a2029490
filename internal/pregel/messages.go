package pregel

import (
	"sort"
	"sync"
)

// msgEntry is one in-flight message. With sender-side combining a
// single entry may stand for many logical sends.
type msgEntry struct {
	to  VertexID
	msg Value
}

// msgBatch is one flushed batch of entries plus the logical message
// counts behind them: n counts SendMessage calls, combined counts the
// ones the sender merged away before flushing (n - combined == number
// of entries surviving to the lane).
type msgBatch struct {
	entries  []msgEntry
	n        int64
	combined int64
}

// batchPool recycles msgBatch objects across flushes and supersteps so
// the steady-state message plane allocates nothing the GC has to mark,
// mirroring the pooled-batch design trace.Sink uses.
type batchPool struct {
	p sync.Pool
}

func (bp *batchPool) get() *msgBatch {
	if b, ok := bp.p.Get().(*msgBatch); ok {
		return b
	}
	return &msgBatch{entries: make([]msgEntry, 0, msgFlushBatch)}
}

func (bp *batchPool) put(b *msgBatch) {
	// Zero the entries so the pool does not retain Value pointers.
	for i := range b.entries {
		b.entries[i] = msgEntry{}
	}
	b.entries = b.entries[:0]
	b.n, b.combined = 0, 0
	bp.p.Put(b)
}

// msgLane is one cell of the lane matrix: the batches one sender has
// flushed toward one destination partition. Only the sending worker
// appends during the compute phase; only the coordinator or the
// destination's owning worker reads after the barrier.
type msgLane struct {
	batches  []*msgBatch
	n        int64
	combined int64
}

// messageStore holds the messages sent during one superstep for
// delivery at the next. It is sharded by destination partition.
// Writes go to the per-sender lane matrix without synchronization
// (each worker appends pooled batches to its own row; with a combiner
// installed senders also pre-combine per destination vertex), and
// mergeLane folds each column into its shard map at the barrier.
// Reads during the next superstep are done exclusively by the shard's
// owning worker and need no locking (the superstep barrier orders
// them).
type messageStore struct {
	combiner Combiner
	shards   []msgShard
	lanes    [][]msgLane // [sender][dest]
	pool     *batchPool  // shared across the engine's stores
}

type msgShard struct {
	// Exactly one of m/c is used, depending on whether a combiner is
	// installed.
	m map[VertexID][]Value
	c map[VertexID]Value
	// n counts messages received (pre-combining), for stats.
	n int64
	// combined counts messages merged away by the combiner (at the
	// sender or the receiver), for the telemetry layer (n - combined
	// messages survive to delivery).
	combined int64
}

func newMessageStore(numShards int, combiner Combiner, pool *batchPool) *messageStore {
	s := &messageStore{combiner: combiner, shards: make([]msgShard, numShards), pool: pool}
	for i := range s.shards {
		if combiner != nil {
			s.shards[i].c = make(map[VertexID]Value)
		} else {
			s.shards[i].m = make(map[VertexID][]Value)
		}
	}
	s.lanes = make([][]msgLane, numShards)
	for i := range s.lanes {
		s.lanes[i] = make([]msgLane, numShards)
	}
	return s
}

// laneAppend hands one flushed batch to lane [sender][dest]. Only
// worker `sender` may call it during the compute phase; the single
// writer makes it synchronization-free.
func (s *messageStore) laneAppend(sender, dest int, b *msgBatch) {
	ln := &s.lanes[sender][dest]
	ln.batches = append(ln.batches, b)
	ln.n += b.n
	ln.combined += b.combined
}

// mergeLane folds column `shard` of the lane matrix into the shard
// map and returns the batches to the pool. It must run after the
// superstep barrier, with exactly one goroutine touching the shard
// (the destination's owning worker). Senders are merged in worker
// order and batches in flush order, so the merged inbox order is
// deterministic: confined recovery replays inboxes in the same order,
// and reruns of one job produce identical traces.
func (s *messageStore) mergeLane(shard int) {
	sh := &s.shards[shard]
	for sender := range s.lanes {
		ln := &s.lanes[sender][shard]
		if ln.n == 0 && len(ln.batches) == 0 {
			continue
		}
		for _, b := range ln.batches {
			if s.combiner != nil {
				for _, en := range b.entries {
					if cur, ok := sh.c[en.to]; ok {
						sh.c[en.to] = s.combiner.Combine(en.to, cur, en.msg)
						sh.combined++
					} else {
						sh.c[en.to] = en.msg
					}
				}
			} else {
				for _, en := range b.entries {
					sh.m[en.to] = append(sh.m[en.to], en.msg)
				}
			}
			s.pool.put(b)
		}
		sh.n += ln.n
		sh.combined += ln.combined
		ln.batches = nil
		ln.n, ln.combined = 0, 0
	}
}

// resetShard clears one shard to its freshly constructed state.
// Confined recovery uses it to discard a failed partition's
// next-superstep inbox before rebuilding it from the outbox logs. The
// caller must be the only goroutine touching the store (the
// coordinator, inside the recovery path).
func (s *messageStore) resetShard(shard int) {
	sh := &s.shards[shard]
	if s.combiner != nil {
		sh.c = make(map[VertexID]Value)
	} else {
		sh.m = make(map[VertexID][]Value)
	}
	sh.n, sh.combined = 0, 0
}

// replayDeliver delivers one replayed message straight into a shard
// map, combining like mergeLane does. Coordinator-only (no locking):
// confined recovery rebuilds inboxes on a single goroutine, in the
// deterministic sender-major order the lane merge would have used.
func (s *messageStore) replayDeliver(shard int, to VertexID, msg Value) {
	sh := &s.shards[shard]
	if s.combiner != nil {
		if cur, ok := sh.c[to]; ok {
			sh.c[to] = s.combiner.Combine(to, cur, msg)
			sh.combined++
		} else {
			sh.c[to] = msg
		}
	} else {
		sh.m[to] = append(sh.m[to], msg)
	}
	sh.n++
}

// migrate moves the pending inbox of one vertex between shards, for
// the skew rebalancer. Both shards must be merged and quiescent (the
// coordinator calls it at the barrier).
func (s *messageStore) migrate(from, to int, id VertexID) {
	fs, ts := &s.shards[from], &s.shards[to]
	if s.combiner != nil {
		if v, ok := fs.c[id]; ok {
			delete(fs.c, id)
			ts.c[id] = v
		}
		return
	}
	if msgs, ok := fs.m[id]; ok {
		delete(fs.m, id)
		ts.m[id] = msgs
	}
}

// hasPending reports whether the shard holds any undelivered messages.
// Valid only after every lane column has been merged into the shards
// (integrateMissing does this at each barrier, and checkpoint recovery
// decodes straight into shards), which is when the engine's partition
// skip consults it.
func (s *messageStore) hasPending(shard int) bool {
	sh := &s.shards[shard]
	return len(sh.c) > 0 || len(sh.m) > 0
}

// take removes and returns the messages for one vertex. Only the
// shard's owning worker may call it, after the sending superstep's
// barrier and mergeLane.
func (s *messageStore) take(shard int, id VertexID) []Value {
	sh := &s.shards[shard]
	if s.combiner != nil {
		if v, ok := sh.c[id]; ok {
			delete(sh.c, id)
			return []Value{v}
		}
		return nil
	}
	if msgs, ok := sh.m[id]; ok {
		delete(sh.m, id)
		return msgs
	}
	return nil
}

// pendingIDs returns, in ascending order, the IDs in the shard that
// are not in exclude. The owning worker uses it to find messages
// addressed to vertices that do not exist yet.
func (s *messageStore) pendingIDs(shard int, exclude map[VertexID]*Vertex) []VertexID {
	sh := &s.shards[shard]
	var ids []VertexID
	if s.combiner != nil {
		for id := range sh.c {
			if _, ok := exclude[id]; !ok {
				ids = append(ids, id)
			}
		}
	} else {
		for id := range sh.m {
			if _, ok := exclude[id]; !ok {
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// trafficMatrix snapshots the lane matrix's per-cell message counts:
// element [s][d] is the number of messages (pre-combine) worker s sent
// toward partition d this superstep. It must be read at the barrier
// before mergeLane folds the columns away; at that point a fresh
// store's shards are empty, so the matrix sums to total().
func (s *messageStore) trafficMatrix() [][]int64 {
	m := make([][]int64, len(s.lanes))
	for i := range s.lanes {
		row := make([]int64, len(s.lanes[i]))
		for j := range s.lanes[i] {
			row[j] = s.lanes[i][j].n
		}
		m[i] = row
	}
	return m
}

// total returns the number of messages received across all shards
// (before combining), including messages still sitting in unmerged
// lanes.
func (s *messageStore) total() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].n
	}
	for i := range s.lanes {
		for j := range s.lanes[i] {
			n += s.lanes[i][j].n
		}
	}
	return n
}

// combinedTotal returns how many messages combiners merged away across
// all shards and unmerged lanes.
func (s *messageStore) combinedTotal() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].combined
	}
	for i := range s.lanes {
		for j := range s.lanes[i] {
			n += s.lanes[i][j].combined
		}
	}
	return n
}

// encode serializes the undelivered messages of one shard, for
// checkpoints. Entries are written in ascending vertex order. The
// scratch slice is reused across shards (and checkpoints) to avoid
// allocating a fresh ID slice per shard; the possibly-grown slice is
// returned for the next call.
func (s *messageStore) encode(shard int, e *Encoder, scratch []VertexID) []VertexID {
	sh := &s.shards[shard]
	ids := scratch[:0]
	if s.combiner != nil {
		for id := range sh.c {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		e.PutUvarint(uint64(len(ids)))
		for _, id := range ids {
			e.PutVarint(int64(id))
			e.PutUvarint(1)
			EncodeTyped(e, sh.c[id])
		}
		return ids
	}
	for id := range sh.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.PutUvarint(uint64(len(ids)))
	for _, id := range ids {
		e.PutVarint(int64(id))
		msgs := sh.m[id]
		e.PutUvarint(uint64(len(msgs)))
		for _, m := range msgs {
			EncodeTyped(e, m)
		}
	}
	return ids
}

// decodeInto restores one shard from its encoded form.
func (s *messageStore) decodeInto(shard int, d *Decoder) error {
	sh := &s.shards[shard]
	nIDs := d.Count()
	for i := 0; i < nIDs && d.Err() == nil; i++ {
		id := VertexID(d.Varint())
		nMsgs := d.Count()
		for j := 0; j < nMsgs && d.Err() == nil; j++ {
			v, err := DecodeTyped(d)
			if err != nil {
				return err
			}
			if s.combiner != nil {
				if cur, ok := sh.c[id]; ok {
					sh.c[id] = s.combiner.Combine(id, cur, v)
				} else {
					sh.c[id] = v
				}
			} else {
				sh.m[id] = append(sh.m[id], v)
			}
			sh.n++
		}
	}
	return d.Err()
}
