package mem

import "testing"

// FuzzCoalesce checks the MCU's structural invariants for arbitrary
// lane address patterns: at least one access when any lane is active,
// never more accesses than lane word-granules, broadcast detection
// exact, and the same result as grouping every word (coalesceRef).
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint8(4))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(8))
	f.Add([]byte{255, 0, 255, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, width uint8) {
		n := int(width%32) + 1
		if len(raw) == 0 {
			return
		}
		lanes := make([][]uint64, n)
		total := 0
		allSame := true
		var first uint64
		for i := 0; i < n; i++ {
			b := raw[i%len(raw)]
			addr := uint64(b) * 4
			lanes[i] = []uint64{addr}
			total++
			if i == 0 {
				first = addr
			} else if addr != first {
				allSame = false
			}
		}
		var st MCUStats
		var sc CoalesceScratch
		acc, pat := Coalesce(lanes, 32, &st, &sc)
		if len(acc) < 1 || len(acc) > total {
			t.Fatalf("emitted %d accesses for %d lanes", len(acc), total)
		}
		if allSame && (pat != PatternBroadcast || len(acc) != 1) {
			t.Fatalf("uniform addresses not broadcast: %v %d", pat, len(acc))
		}
		if st.Emitted != uint64(len(acc)) || st.LaneAccesses != uint64(total) {
			t.Fatalf("stats inconsistent: %+v vs %d/%d", st, len(acc), total)
		}
		checkCoalesceRef(t, &sc, lanes, 32)
	})
}

// FuzzCacheAccess checks that the cache never loses the line it just
// inserted and that stats stay consistent, and that the split tag store
// agrees with refCache on an operation sequence decoded from raw (two
// bytes per op: kind and line) for the geometry geom selects from
// equivGeometries.
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{1, 2, 3}, false, uint8(0))
	f.Add([]byte{1, 9, 0, 9, 4, 0, 2, 9, 1, 200, 3, 9}, true, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, write bool, geom uint8) {
		c := smallCache()
		for _, b := range raw {
			addr := uint64(b) * 32
			c.Access(addr, write)
			if !c.Probe(c.LineAddr(addr)) {
				t.Fatalf("line %#x absent immediately after access", addr)
			}
		}
		if c.Stats.Misses > c.Stats.Accesses {
			t.Fatalf("more misses than accesses: %+v", c.Stats)
		}

		// Lines spaced so that each byte value lands in the same set
		// as its neighbours a few apart: small inputs still overflow
		// sets and evict.
		cfg := equivGeometries[int(geom)%len(equivGeometries)]
		stride := uint64(cfg.Sets()*cfg.LineBytes) / 4
		ops := make([]cacheOp, len(raw)/2)
		for i := range ops {
			kind, line := raw[2*i], raw[2*i+1]
			ops[i] = cacheOp{kind: kind % 5, addr: uint64(line) * stride}
		}
		checkCacheEquiv(t, cfg, ops)
	})
}
