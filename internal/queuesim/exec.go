// The generic spec-driven executor: walks the compiled graph tables
// (cgraph, see graph.go) instead of hand-coded dispatch switches. The
// request path supports coin-conditioned edges and sync/async fan-out
// legs; the batch path supports fan-out and per-member hit/miss
// divergence. Stage payloads in events are compiled stage indices (or
// the cgDone/cgJoin sentinels), which never affect dispatch order: the
// scheduler orders by (at, seq) alone.
package queuesim

// --- request path ---

// enter lands a request or fan-out leg on a compiled stage, resolves
// it at cgDone, or joins a leg at cgJoin.
func (e *engine) enter(idx, stage int32) {
	r := e.reqs.at(idx)
	if r.flags&rfLeg != 0 {
		if stage == cgJoin {
			e.legEnd(idx)
			return
		}
		// A sync leg whose parent died (timeout, rejection elsewhere,
		// slot recycled) is abandoned; legEnd settles the join count so
		// the dead parent is eventually collected. Async legs
		// (parent < 0) always run to their join.
		if r.parent >= 0 {
			p := e.reqs.at(r.parent)
			if p.gen != e.ext.at(idx).pgen || p.flags&rfDead != 0 {
				e.legEnd(idx)
				return
			}
		}
	} else {
		if r.flags&rfDead != 0 {
			e.free(idx)
			return
		}
		if stage == cgDone {
			e.complete(idx)
			return
		}
	}
	r.stage = int8(stage)
	r.enq = e.sim.now
	e.submitReq(&e.sts[e.g.stages[stage].station], idx)
}

// serveReq draws the service demand from the compiled stage.
func (e *engine) serveReq(st *estation, idx int32) {
	s := &e.g.stages[e.reqs.at(idx).stage]
	d := s.demand
	if !s.fixed {
		d = e.sim.Jitter(d) * e.latMul
	}
	e.sim.AtEvent(d, ekSvcDone, idx, st.idx)
}

// followEdge moves a request along one compiled edge, crossing the
// wire when the edge is a hop.
func (e *engine) followEdge(idx int32, ed *cedge) {
	if ed.hop {
		e.sim.atLane(laneWire, e.netHop, ekNet, idx, ed.to)
		return
	}
	e.enter(idx, ed.to)
}

// advance moves a request past its just-completed stage: into the
// forming batch at the formation point (RPU), into its fan-out legs,
// or along the first matching next edge.
func (e *engine) advance(idx int32) {
	r := e.reqs.at(idx)
	s := &e.g.stages[r.stage]
	if r.flags&rfLeg == 0 {
		if e.cfg.RPU && int32(r.stage) == e.g.formAfter {
			e.joinBatch(idx)
			return
		}
		if len(s.fanout) > 0 {
			e.spawnLegs(idx, s)
			return
		}
	}
	e.followEdge(idx, pickEdge(s.next, r.coins))
}

// spawnLegs spawns one leg per matching fan-out edge. The join count is
// set before any leg launches so a leg rejected synchronously (queue
// cap) cannot race it; if a rejected leg abandons and frees the parent
// mid-loop the generation check below stops the walk.
func (e *engine) spawnLegs(idx int32, s *cstage) {
	r := e.reqs.at(idx)
	coins := r.coins
	gen := r.gen
	arrive := r.arrive
	sync := int32(0)
	for i := range s.fanout {
		ed := &s.fanout[i]
		if ed.taken(coins) && !ed.async {
			sync++
		}
	}
	e.ext.at(idx).joins = sync
	for i := range s.fanout {
		ed := &s.fanout[i]
		if !ed.taken(coins) {
			continue
		}
		if r.gen != gen {
			// A rejected leg already abandoned and freed the parent;
			// remaining legs would reference a recycled slot.
			return
		}
		li := e.alloc()
		l, lx := e.reqs.at(li), e.ext.at(li)
		l.arrive = arrive
		l.tries = 0
		l.coins = coins
		l.flags = rfLeg
		lx.user = -1
		lx.twin = -1
		lx.joins = 0
		if ed.async {
			l.parent = -1
			lx.pgen = 0
		} else {
			l.parent = idx
			lx.pgen = gen
		}
		e.followEdge(li, ed)
	}
	if r.gen != gen {
		return // parent abandoned by a rejected leg during the launch loop
	}
	if e.ext.at(idx).joins == 0 {
		// No sync legs (all async or none taken): continue immediately.
		e.followEdge(idx, pickEdge(s.next, coins))
	}
}

// legEnd retires a fan-out leg: frees its slot, settles the parent's
// join count, and — when this was the last outstanding sync leg —
// either advances the parent or collects it if it died while waiting.
func (e *engine) legEnd(li int32) {
	pi, pgen := e.reqs.at(li).parent, e.ext.at(li).pgen
	e.free(li)
	if pi < 0 {
		return // async leg: nobody waits
	}
	p, px := e.reqs.at(pi), e.ext.at(pi)
	if p.gen != pgen {
		return // parent slot already recycled
	}
	px.joins--
	if px.joins > 0 {
		return
	}
	if p.flags&rfDead != 0 {
		e.free(pi) // the legs were its driver
		return
	}
	e.followEdge(pi, pickEdge(e.g.stages[p.stage].next, p.coins))
}

// rejectLeg handles a queue-capacity rejection of a fan-out leg: the
// parent's current try is abandoned (retrying if budget remains) and
// the leg joins out.
func (e *engine) rejectLeg(li int32) {
	l := e.reqs.at(li)
	if l.parent >= 0 {
		p := e.reqs.at(l.parent)
		if p.gen == e.ext.at(li).pgen && p.flags&rfDead == 0 {
			// Not the driver: the outstanding legs collectively are.
			e.abandonTry(l.parent, false)
		}
	}
	e.legEnd(li)
}

// --- batch path ---

// enterBatch lands a batch (or batch fan-out leg) on a compiled
// batch stage, completes it at cgDone, or joins a leg at cgJoin.
func (e *engine) enterBatch(bi, stage int32) {
	if stage == cgDone {
		e.completeBatch(bi)
		return
	}
	if stage == cgJoin {
		e.batchLegEnd(bi)
		return
	}
	b := e.batches.at(bi)
	b.stage = int8(stage)
	b.enq = e.sim.now
	e.submitBatch(&e.sts[e.g.bstages[stage].station], bi)
}

func (e *engine) followBEdge(bi int32, ed *cedge) {
	if ed.hop {
		e.sim.atLane(laneWire, e.netHop, ekBatchNet, bi, ed.to)
		return
	}
	e.enterBatch(bi, ed.to)
}

// serveBatch draws the batch service demand: fixed or jittered
// demand, plus any on-core hold (the reconvergence wait of an unsplit
// batch).
func (e *engine) serveBatch(st *estation, bi int32) {
	bs := &e.g.bstages[e.batches.at(bi).stage]
	d := bs.demand
	if !bs.fixed {
		d = e.sim.Jitter(d) * e.latMul
	}
	d = bs.hold + d
	e.sim.AtEvent(d, ekBatchDone, bi, st.idx)
}

// routeBatch routes a batch past its just-completed stage: into a
// divergence, its fan-out legs, or along its next edge.
func (e *engine) routeBatch(bi int32) {
	b := e.batches.at(bi)
	bs := &e.g.bstages[b.stage]
	if bs.div != nil {
		e.diverge(bi, bs.div)
		return
	}
	if len(bs.fanout) > 0 && b.parent < 0 {
		e.spawnBatchLegs(bi, bs)
		return
	}
	e.followBEdge(bi, &bs.next[0])
}

// spawnBatchLegs spawns one empty sub-batch per fan-out edge; sync legs
// occupy their stations batch-wide and join back before the parent
// batch continues. Unlike request legs there is no rejection hazard:
// submitBatch has no queue cap, so the join count cannot race.
func (e *engine) spawnBatchLegs(bi int32, bs *cbstage) {
	sync := int32(0)
	for i := range bs.fanout {
		if !bs.fanout[i].async {
			sync++
		}
	}
	e.batches.at(bi).joins = sync
	for i := range bs.fanout {
		ed := &bs.fanout[i]
		li := e.allocBatch()
		l := e.batches.at(li)
		if !ed.async {
			l.parent = bi
		}
		e.followBEdge(li, ed)
	}
	if sync == 0 {
		e.followBEdge(bi, &bs.next[0])
	}
}

// batchLegEnd retires a batch fan-out leg and advances the parent
// batch when it was the last sync leg outstanding.
func (e *engine) batchLegEnd(li int32) {
	pi := e.batches.at(li).parent
	e.freeBatch(li)
	if pi < 0 {
		return
	}
	p := e.batches.at(pi)
	p.joins--
	if p.joins > 0 {
		return
	}
	e.followBEdge(pi, &e.g.bstages[p.stage].next[0])
}

// diverge routes a batch after its per-member coin divergence:
// collect cancelled members, then split (§III-B5), hold the whole
// batch at the reconvergence point, or proceed along the hit edge.
func (e *engine) diverge(bi int32, dv *cbdiv) {
	b := e.batches.at(bi)
	bit := uint16(1) << dv.coin
	live := b.members[:0]
	misses := 0
	for _, idx := range b.members {
		r := e.reqs.at(idx)
		if r.flags&rfDead != 0 {
			e.free(idx)
			continue
		}
		live = append(live, idx)
		if r.coins&bit == 0 {
			misses++
		}
	}
	b.members = live
	if len(live) == 0 {
		e.freeBatch(bi)
		return
	}
	if misses == 0 {
		e.followBEdge(bi, &dv.hit)
		return
	}
	if !e.cfg.Split {
		if dv.hasHold {
			e.followBEdge(bi, &dv.hold)
		} else {
			e.followBEdge(bi, &dv.miss)
		}
		return
	}
	e.m.SplitBatches++
	if misses == len(live) {
		// All-miss batch: it is its own miss sub-batch.
		e.followBEdge(bi, &dv.miss)
		return
	}
	mi := e.allocBatch()
	mb := e.batches.at(mi)
	hits := b.members[:0]
	for _, idx := range b.members {
		if e.reqs.at(idx).coins&bit == 0 {
			mb.members = append(mb.members, idx)
		} else {
			hits = append(hits, idx)
		}
	}
	b.members = hits
	e.followBEdge(bi, &dv.hit)
	e.followBEdge(mi, &dv.miss)
}
