package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"strings"
	"testing"

	"simr/internal/batch"
	"simr/internal/pipeline"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// streamDigest accumulates a SHA-256 over every field of the streams a
// run prepares: each uop, the addresses it issues, and the batch
// counts and MCU delta of batched streams.
type streamDigest struct {
	h   hash.Hash
	buf []byte
}

func newStreamDigest() *streamDigest { return &streamDigest{h: sha256.New()} }

func (d *streamDigest) stream(s pipeline.Stream) {
	le := binary.LittleEndian
	for i := range s.Uops {
		d.flush()
		u := &s.Uops[i]
		d.buf = le.AppendUint64(d.buf, u.PC)
		d.buf = le.AppendUint64(d.buf, u.Mask)
		d.buf = le.AppendUint64(d.buf, u.TakenMask)
		d.buf = le.AppendUint32(d.buf, uint32(u.Dep1))
		d.buf = le.AppendUint32(d.buf, uint32(u.Dep2))
		d.buf = le.AppendUint32(d.buf, u.Acc)
		d.buf = le.AppendUint16(d.buf, u.NAcc)
		d.buf = append(d.buf, byte(u.Class), u.Thread)
		for _, a := range s.Accesses(u) {
			d.buf = le.AppendUint64(d.buf, a)
		}
	}
	d.buf = le.AppendUint64(d.buf, uint64(len(s.Uops)))
	d.buf = le.AppendUint64(d.buf, uint64(len(s.Addrs)))
	d.flush()
}

// flush hashes the buffered bytes and empties the buffer.
func (d *streamDigest) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

func (d *streamDigest) batch(bs *trace.BatchStream) {
	d.stream(bs.Stream)
	for _, v := range []uint64{bs.MCU.Broadcast, bs.MCU.Coalesced, bs.MCU.Divergent,
		bs.MCU.LaneAccesses, bs.MCU.Emitted, uint64(bs.ScalarOps), uint64(bs.BatchOps), uint64(bs.Requests)} {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	}
	d.flush()
}

func (d *streamDigest) String() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// goldenStreams renders one line per (service, stream kind): the
// digest of every stream the chip study's prep builds for the
// service's requests — the CPU's scalar streams, the SMT-8 core's
// merged streams, and the RPU's and GPU's batch streams under the
// default options — plus the RPU's under naive batching, which mixes
// APIs in a batch, with MinSP-PC and with IPDOM reconvergence.
func goldenStreams(t *testing.T, requests int, seed int64) string {
	t.Helper()
	var out strings.Builder
	for _, svc := range uservices.NewSuite().Services {
		reqs := genRequests(svc, requests, seed)
		p := (&workSet{}).slot(svc, nil)
		cpu, smt := newStreamDigest(), newStreamDigest()
		for off := 0; off < len(reqs); off += smtWays {
			p.setGroup(reqs[off:min(off+smtWays, len(reqs))])
			for i := range p.group {
				s, err := p.scalar(i)
				if err != nil {
					t.Fatal(err)
				}
				cpu.stream(s)
			}
			s, err := p.smt()
			if err != nil {
				t.Fatal(err)
			}
			smt.stream(s)
		}
		fmt.Fprintf(&out, "%s cpu %v\n", svc.Name, cpu)
		fmt.Fprintf(&out, "%s smt8 %v\n", svc.Name, smt)

		reconv := svc.BranchReconv()
		naive := DefaultOptions()
		naive.Policy = batch.Naive
		naiveIPDOM := naive
		naiveIPDOM.UseIPDOM = true
		for _, v := range []struct {
			name string
			arch Arch
			opts Options
		}{
			{"rpu", ArchRPU, DefaultOptions()},
			{"gpu", ArchGPU, DefaultOptions()},
			{"rpu-naive", ArchRPU, naive},
			{"rpu-naive-ipdom", ArchRPU, naiveIPDOM},
		} {
			d := newStreamDigest()
			var bs trace.BatchStream
			batches := batch.Form(reqs, svc.TunedBatch, v.opts.Policy)
			for i := range batches {
				if err := p.batch(&batches[i], &v.opts, svc.TunedBatch, MemConfig(v.arch).L1.Banks, reconv, &bs); err != nil {
					t.Fatal(err)
				}
				d.batch(&bs)
			}
			fmt.Fprintf(&out, "%s %s %v\n", svc.Name, v.name, d)
		}
	}
	return out.String()
}

// TestGoldenStreams: the prepared CPU, SMT-8, RPU and GPU streams of
// every service — uops, addresses and batch counts — reproduce the
// digests in testdata/golden_streams.txt, written before the scalar
// trace record was packed to 24 bytes. The chip fixtures see only the
// timing these streams produce; this one sees the streams themselves.
func TestGoldenStreams(t *testing.T) {
	checkGoldenFile(t, "testdata/golden_streams.txt", []byte(goldenStreams(t, 64, 42)))
}
